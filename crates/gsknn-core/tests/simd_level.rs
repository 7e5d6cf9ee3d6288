//! The process-wide SIMD level override. Kept in a test binary of its
//! own: forcing a level switches every kernel running in the process,
//! so doing it next to the library's unit tests would change the
//! results of kernels they compare bit for bit.

use gsknn_core::{set_simd_level, simd_level, SimdLevel};

#[test]
fn forced_level_round_trips_and_resets() {
    assert_eq!(simd_level(), SimdLevel::Auto, "Auto is the default");
    for level in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
        set_simd_level(level);
        assert_eq!(simd_level(), level);
    }
    set_simd_level(SimdLevel::Auto);
    assert_eq!(simd_level(), SimdLevel::Auto);
}
