//! The traced build of the benchmark: kernel and serve probes on.

fn main() {
    std::process::exit(perfbench::cli::main());
}
