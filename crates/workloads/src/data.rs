//! Seeded synthetic data generators.
//!
//! The paper's kernels run on proprietary 4G/5G signal traces; the kernels
//! are dense and data-oblivious, so timing depends only on problem sizes
//! (Table V). We substitute seeded pseudo-random inputs shaped to each
//! kernel's numerical requirements (SPD matrices for Cholesky, diagonally
//! dominant triangular systems for the solver, …).

use crate::reference;
use revel_isa::Rng;

fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(0x5EED_0000 ^ seed)
}

/// A vector of `n` values in (-1, 1).
pub fn vector(n: usize, seed: u64) -> Vec<f64> {
    let mut r = rng(seed);
    (0..n).map(|_| r.gen_range_f64(-1.0, 1.0)).collect()
}

/// A dense row-major `rows × cols` matrix with entries in (-1, 1).
pub fn matrix(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
    vector(rows * cols, seed ^ 0x9E37)
}

/// A symmetric positive-definite `n × n` matrix (`M·Mᵀ + n·I`). Each entry
/// is [`reference::gemm`]'s sum over `M` and `Mᵀ`, then `n` or `0.0` added.
pub fn spd_matrix(n: usize, seed: u64) -> Vec<f64> {
    let m = matrix(n, n, seed);
    let mut mt = vec![0.0; n * n];
    for t in 0..n {
        for j in 0..n {
            mt[t * n + j] = m[j * n + t];
        }
    }
    let mut a = reference::gemm(&m, &mt, n, n, n);
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] += if i == j { n as f64 } else { 0.0 };
        }
    }
    a
}

/// An upper-triangular, diagonally-dominant system matrix (row-major,
/// zeros below the diagonal) — well-conditioned for the forward solver.
pub fn triangular_system(n: usize, seed: u64) -> Vec<f64> {
    let mut r = rng(seed ^ 0x7717);
    let mut a = vec![0.0; n * n];
    for j in 0..n {
        for i in j..n {
            a[j * n + i] =
                if i == j { 3.0 + r.gen_range_f64(0.0, 1.0) } else { r.gen_range_f64(-0.4, 0.4) };
        }
    }
    a
}

/// A symmetric FIR filter of `m` taps (centro-symmetric by construction).
pub fn symmetric_filter(m: usize, seed: u64) -> Vec<f64> {
    let mut c = vector(m, seed ^ 0xF117);
    for t in 0..m / 2 {
        c[m - 1 - t] = c[t];
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(vector(8, 1), vector(8, 1));
        assert_ne!(vector(8, 1), vector(8, 2));
    }

    #[test]
    fn spd_is_symmetric_and_dominant() {
        let n = 6;
        let a = spd_matrix(n, 9);
        for i in 0..n {
            assert!(a[i * n + i] >= n as f64);
            for j in 0..n {
                assert!((a[i * n + j] - a[j * n + i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn triangular_zeros_below_diagonal() {
        let n = 5;
        let a = triangular_system(n, 1);
        for j in 1..n {
            for i in 0..j {
                assert_eq!(a[j * n + i], 0.0);
            }
        }
    }

    #[test]
    fn filter_is_symmetric() {
        for m in [5, 8, 37] {
            let c = symmetric_filter(m, 3);
            for t in 0..m {
                assert!((c[t] - c[m - 1 - t]).abs() < 1e-12);
            }
        }
    }
}
