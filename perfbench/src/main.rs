//! The untraced build of the benchmark: every library at its default
//! features.

fn main() {
    std::process::exit(perfbench::cli::main());
}
