//! Golden reference implementations of the seven kernels (Table V) plus
//! FLOP counts. These are straightforward f64 implementations; every
//! accelerator build is verified against them numerically.

/// In-place triangular solve in the paper's elimination order (Fig. 2):
/// `b[j] /= a[j][j]; b[i] -= b[j]*a[j][i]`. For a row-major
/// upper-triangular `a`, this is forward substitution on `aᵀ·x = b`.
pub fn solver(a: &[f64], n: usize, b: &mut [f64]) {
    for j in 0..n {
        b[j] /= a[j * n + j];
        for i in j + 1..n {
            b[i] -= b[j] * a[j * n + i];
        }
    }
}

/// FLOPs of the triangular solver.
pub fn solver_flops(n: usize) -> u64 {
    (n + n * (n - 1)) as u64 // n divides + 2 per inner iteration
}

/// Right-looking Cholesky decomposition in the paper's update order
/// (Fig. 5): returns `L` (row-major, lower-triangular) such that
/// `L·Lᵀ = A`. `A` must be symmetric positive definite.
pub fn cholesky(a: &[f64], n: usize) -> Vec<f64> {
    let mut w = a.to_vec(); // working upper-triangular copy
    let mut l = vec![0.0; n * n];
    for k in 0..n {
        let akk = w[k * n + k];
        let inv = 1.0 / akk;
        let invsqrt = 1.0 / akk.sqrt();
        // vector region: l[j,k] = a[k,j] * invsqrt for j = k..n
        for j in k..n {
            l[j * n + k] = w[k * n + j] * invsqrt;
        }
        // matrix region: a[j,i] -= a[k,i] * a[k,j] * inv
        for j in k + 1..n {
            for i in j..n {
                w[j * n + i] -= w[k * n + i] * w[k * n + j] * inv;
            }
        }
    }
    l
}

/// FLOPs of Cholesky (as implemented above).
pub fn cholesky_flops(n: usize) -> u64 {
    let mut f = 0u64;
    for k in 0..n {
        f += 3; // inv, sqrt, invsqrt
        f += (n - k) as u64; // vector scale
        for j in k + 1..n {
            f += 3 * (n - j) as u64; // 2 mul + 1 sub per element
        }
    }
    f
}

/// Householder QR: factors column-major `A` (n×n) in place into `R` (upper
/// triangle) and returns the Householder vectors (for verification we
/// return `(q, r)` with `Q·R = A`, both row-major n×n).
pub fn qr(a_row_major: &[f64], n: usize) -> (Vec<f64>, Vec<f64>) {
    // Work in column-major.
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[j * n + i] = a_row_major[i * n + j];
        }
    }
    let mut q = vec![0.0; n * n]; // accumulated Q (column-major)
    for i in 0..n {
        q[i * n + i] = 1.0;
    }
    let mut v = vec![0.0; n];
    for k in 0..n - 1 {
        // x = A[k:n, k]
        let norm2: f64 = (k..n).map(|i| a[k * n + i] * a[k * n + i]).sum();
        let norm = norm2.sqrt();
        if norm < 1e-300 {
            continue;
        }
        let x0 = a[k * n + k];
        let alpha = if x0 >= 0.0 { -norm } else { norm };
        v[k..n].copy_from_slice(&a[k * n + k..k * n + n]);
        v[k] = x0 - alpha;
        let vtv: f64 = (k..n).map(|i| v[i] * v[i]).sum();
        if vtv < 1e-300 {
            continue;
        }
        let beta = 2.0 / vtv;
        // Update A columns j = k..n: A[:,j] -= beta * (v . A[k:n,j]) * v
        for j in k..n {
            let s: f64 = (k..n).map(|i| v[i] * a[j * n + i]).sum();
            let bs = beta * s;
            for i in k..n {
                a[j * n + i] -= bs * v[i];
            }
        }
        // Accumulate Q: Q[:,c] -= beta * (v . Q[k:n,c]) * v for all cols c.
        for c in 0..n {
            let s: f64 = (k..n).map(|i| v[i] * q[c * n + i]).sum();
            let bs = beta * s;
            for i in k..n {
                q[c * n + i] -= bs * v[i];
            }
        }
    }
    // Convert back to row-major; R is the upper triangle of A. The
    // accumulated reflector product M = H_{n-2}···H_0 satisfies M·A = R,
    // so Q = Mᵀ; M is stored column-major, hence Q row-major is a copy.
    let mut r = vec![0.0; n * n];
    let mut qrm = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            if j >= i {
                r[i * n + j] = a[j * n + i];
            }
            qrm[i * n + j] = q[i * n + j];
        }
    }
    (qrm, r)
}

/// FLOPs of Householder QR on the trailing-update phases.
pub fn qr_flops(n: usize) -> u64 {
    let mut f = 0u64;
    for k in 0..n - 1 {
        let m = (n - k) as u64;
        f += 2 * m + 4; // norm + alpha + beta
        f += (n - k) as u64 * (4 * m); // dots + updates per column
    }
    f
}

/// One-sided Jacobi SVD sweep state: orthogonalizes columns of `a`
/// (row-major m=n square here) in place; after enough sweeps the column
/// norms are the singular values. Returns number of rotations applied.
pub fn svd_sweep(a: &mut [f64], n: usize) -> usize {
    let mut rotations = 0;
    for p in 0..n - 1 {
        for q in p + 1..n {
            let mut app = 0.0;
            let mut aqq = 0.0;
            let mut apq = 0.0;
            for i in 0..n {
                app += a[i * n + p] * a[i * n + p];
                aqq += a[i * n + q] * a[i * n + q];
                apq += a[i * n + p] * a[i * n + q];
            }
            if apq.abs() < 1e-14 * (app * aqq).sqrt().max(1e-300) {
                continue;
            }
            let tau = (aqq - app) / (2.0 * apq);
            let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
            let c = 1.0 / (1.0 + t * t).sqrt();
            let s = t * c;
            for i in 0..n {
                let vp = a[i * n + p];
                let vq = a[i * n + q];
                a[i * n + p] = c * vp - s * vq;
                a[i * n + q] = s * vp + c * vq;
            }
            rotations += 1;
        }
    }
    rotations
}

/// Singular values via one-sided Jacobi with `sweeps` full sweeps.
pub fn svd_singular_values(a: &[f64], n: usize, sweeps: usize) -> Vec<f64> {
    let mut w = a.to_vec();
    for _ in 0..sweeps {
        svd_sweep(&mut w, n);
    }
    let mut sv: Vec<f64> =
        (0..n).map(|j| (0..n).map(|i| w[i * n + j] * w[i * n + j]).sum::<f64>().sqrt()).collect();
    sv.sort_by(|x, y| y.partial_cmp(x).unwrap());
    sv
}

/// FLOPs of one Jacobi sweep.
pub fn svd_sweep_flops(n: usize) -> u64 {
    let pairs = (n * (n - 1) / 2) as u64;
    pairs * (6 * n as u64 + 12 + 6 * n as u64)
}

/// In-place iterative radix-2 DIT FFT on interleaved complex data
/// (`re0, im0, re1, im1, …`), natural-order input, natural-order output.
pub fn fft(data: &mut [f64]) {
    let n = data.len() / 2;
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(2 * i, 2 * j);
            data.swap(2 * i + 1, 2 * j + 1);
        }
    }
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for start in (0..n).step_by(len) {
            for k in 0..half {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                let a = start + k;
                let b = a + half;
                let (ar, ai) = (data[2 * a], data[2 * a + 1]);
                let (br, bi) = (data[2 * b], data[2 * b + 1]);
                let tr = wr * br - wi * bi;
                let ti = wr * bi + wi * br;
                data[2 * a] = ar + tr;
                data[2 * a + 1] = ai + ti;
                data[2 * b] = ar - tr;
                data[2 * b + 1] = ai - ti;
            }
        }
        len *= 2;
    }
}

/// FLOPs of a radix-2 FFT of `n` complex points.
pub fn fft_flops(n: usize) -> u64 {
    (n as u64 / 2) * (n as u64).trailing_zeros() as u64 * 10
}

/// Row-major GEMM: `C[m×p] = A[m×k] · B[k×p]`. Each output sums
/// `t = 0..k` from `0.0` in order; the loops run i, t, j so the inner loop
/// walks a row of independent outputs instead of one dependent add chain.
pub fn gemm(a: &[f64], b: &[f64], m: usize, k: usize, p: usize) -> Vec<f64> {
    let mut c = vec![0.0; m * p];
    for i in 0..m {
        let ci = &mut c[i * p..(i + 1) * p];
        for t in 0..k {
            let ait = a[i * k + t];
            for (cij, &btj) in ci.iter_mut().zip(&b[t * p..(t + 1) * p]) {
                *cij += ait * btj;
            }
        }
    }
    c
}

/// FLOPs of GEMM.
pub fn gemm_flops(m: usize, k: usize, p: usize) -> u64 {
    2 * (m * k * p) as u64
}

/// Centro-symmetric FIR, as the direct sum `y[i] = Σ_t c[t]·x[i+t]`: each
/// output sums its taps from `0.0` in order, with the taps outermost so the
/// inner loop runs across independent outputs. [`centro_pairs`] folds `c`
/// for the paired form the fabric computes.
pub fn centro_fir(x: &[f64], c: &[f64], n_out: usize) -> Vec<f64> {
    let mut y = vec![0.0; n_out];
    for (t, &ct) in c.iter().enumerate() {
        for (yi, &xi) in y.iter_mut().zip(&x[t..t + n_out]) {
            *yi += ct * xi;
        }
    }
    y
}

/// Halve the middle coefficient of an odd-length symmetric filter so the
/// paired form `c'[t]·(x[i+t]+x[i+m-1-t])` computes the same output.
pub fn centro_pairs(c: &[f64]) -> Vec<f64> {
    let m = c.len();
    let pairs = m.div_ceil(2);
    let mut cp = c[..pairs].to_vec();
    if m % 2 == 1 {
        cp[pairs - 1] *= 0.5;
    }
    cp
}

/// FLOPs of the centro-symmetric FIR (paired form).
pub fn fir_flops(n_out: usize, m: usize) -> u64 {
    let pairs = m.div_ceil(2) as u64;
    n_out as u64 * pairs * 3 // add + mul + accumulate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;
    use revel_isa::Rng;

    /// The dot-order GEMM the row-order [`gemm`] must reproduce: each
    /// output down one add chain.
    fn gemm_dot(a: &[f64], b: &[f64], m: usize, k: usize, p: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * p];
        for i in 0..m {
            for j in 0..p {
                let mut acc = 0.0;
                for t in 0..k {
                    acc += a[i * k + t] * b[t * p + j];
                }
                c[i * p + j] = acc;
            }
        }
        c
    }

    /// The output-outer FIR the tap-outer [`centro_fir`] must reproduce.
    fn centro_fir_dot(x: &[f64], c: &[f64], n_out: usize) -> Vec<f64> {
        let mut y = vec![0.0; n_out];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (t, ct) in c.iter().enumerate() {
                acc += ct * x[i + t];
            }
            *yi = acc;
        }
        y
    }

    /// The dot-order `M·Mᵀ + n·I` [`data::spd_matrix`] must reproduce.
    fn spd_matrix_dot(n: usize, seed: u64) -> Vec<f64> {
        let m = data::matrix(n, n, seed);
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for t in 0..n {
                    acc += m[i * n + t] * m[j * n + t];
                }
                a[i * n + j] = acc + if i == j { n as f64 } else { 0.0 };
            }
        }
        a
    }

    /// Every word's bits equal, except that a NaN matches any NaN: Rust
    /// leaves the sign and payload of a NaN result unspecified, so the
    /// compiler may pick either operand's NaN in either loop order.
    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(
                same,
                "{what}: word {i}: {g:e} ({:#x}) != {w:e} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    const EDGES: [f64; 11] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -5e-324,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.0,
    ];

    /// `n` seeded values, each an edge value of `pool` with probability
    /// `share` (else uniform in (-1, 1)).
    fn edgy(n: usize, seed: u64, pool: &[f64], share: f64) -> Vec<f64> {
        let mut r = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let v = r.gen_range_f64(-1.0, 1.0);
                if r.gen_f64() < share {
                    pool[r.gen_index(pool.len())]
                } else {
                    v
                }
            })
            .collect()
    }

    /// Value pools: seeded data only; signed zeros and subnormals (sums
    /// that stay zero or tiny); every edge value sparsely, and densely.
    fn inputs(n: usize, seed: u64) -> [Vec<f64>; 4] {
        [
            data::vector(n, seed),
            edgy(n, seed, &EDGES[..4], 0.9),
            edgy(n, seed, &EDGES, 0.05),
            edgy(n, seed, &EDGES, 0.5),
        ]
    }

    #[test]
    fn row_order_gemm_is_the_dot_order_bit_for_bit() {
        let shapes =
            [(12, 16, 64), (48, 16, 64), (3, 5, 7), (1, 1, 1), (7, 1, 9), (5, 0, 3), (0, 4, 8)];
        for (m, k, p) in shapes {
            for seed in 0..16 {
                let [a, b] = [(m * k, seed), (k * p, seed + 100)].map(|(n, s)| inputs(n, s));
                for (pool, (a, b)) in a.iter().zip(&b).enumerate() {
                    let what = format!("gemm {m}x{k}x{p} seed {seed} pool {pool}");
                    assert_bits(&gemm(a, b, m, k, p), &gemm_dot(a, b, m, k, p), &what);
                }
            }
        }
    }

    #[test]
    fn tap_outer_fir_is_the_output_outer_sum_bit_for_bit() {
        for (taps, n_out) in [(37, 1024), (199, 1024), (5, 64), (8, 32), (1, 3), (13, 0)] {
            for seed in 0..8 {
                let [x, c] =
                    [(n_out + taps - 1, seed), (taps, seed + 100)].map(|(n, s)| inputs(n, s));
                for (pool, (x, c)) in x.iter().zip(&c).enumerate() {
                    let what = format!("fir m={taps} n={n_out} seed {seed} pool {pool}");
                    assert_bits(&centro_fir(x, c, n_out), &centro_fir_dot(x, c, n_out), &what);
                }
            }
        }
    }

    #[test]
    fn row_order_spd_matrix_is_the_dot_order_bit_for_bit() {
        for n in [12, 16, 24, 32, 1, 3, 5] {
            for seed in 0..40 {
                let what = format!("spd n={n} seed {seed}");
                assert_bits(&data::spd_matrix(n, seed), &spd_matrix_dot(n, seed), &what);
            }
        }
    }

    #[test]
    fn solver_reduces_residual() {
        let n = 8;
        let a = data::triangular_system(n, 1);
        let mut b = data::vector(n, 2);
        let b0 = b.clone();
        solver(&a, n, &mut b);
        // The elimination order solves aᵀ·x = b0: row j of aᵀ holds
        // a[i*n+j] for i <= j.
        for j in 0..n {
            let ax: f64 = (0..=j).map(|i| a[i * n + j] * b[i]).sum();
            assert!((ax - b0[j]).abs() < 1e-9, "row {j}: {ax} vs {}", b0[j]);
        }
    }

    #[test]
    fn cholesky_reconstructs() {
        let n = 8;
        let a = data::spd_matrix(n, 3);
        let l = cholesky(&a, n);
        for i in 0..n {
            for j in 0..n {
                let llt: f64 = (0..n).map(|t| l[i * n + t] * l[j * n + t]).sum();
                assert!((llt - a[i * n + j]).abs() < 1e-8, "({i},{j})");
            }
        }
    }

    #[test]
    fn qr_reconstructs_and_q_orthogonal() {
        let n = 8;
        let a = data::matrix(n, n, 4);
        let (q, r) = qr(&a, n);
        for i in 0..n {
            for j in 0..n {
                let qr_ij: f64 = (0..n).map(|t| q[i * n + t] * r[t * n + j]).sum();
                assert!((qr_ij - a[i * n + j]).abs() < 1e-8, "QR ({i},{j})");
                let qtq: f64 = (0..n).map(|t| q[t * n + i] * q[t * n + j]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq - expect).abs() < 1e-8, "QtQ ({i},{j})");
            }
        }
        // R upper triangular.
        for i in 1..n {
            for j in 0..i {
                assert!(r[i * n + j].abs() < 1e-9);
            }
        }
    }

    #[test]
    fn svd_matches_eigen_of_ata() {
        let n = 6;
        let a = data::matrix(n, n, 5);
        let sv = svd_singular_values(&a, n, 12);
        // Σ σ² = ||A||_F².
        let fro2: f64 = a.iter().map(|x| x * x).sum();
        let sum_sq: f64 = sv.iter().map(|s| s * s).sum();
        assert!((fro2 - sum_sq).abs() < 1e-6 * fro2);
        // Products of singular values = |det| (for square A).
        // (skip det check; frobenius + ordering suffice)
        assert!(sv.windows(2).all(|w| w[0] >= w[1] - 1e-12));
    }

    #[test]
    fn fft_matches_dft() {
        let n = 32;
        let mut data: Vec<f64> = crate::data::vector(2 * n, 6);
        let orig = data.clone();
        fft(&mut data);
        for k in 0..n {
            let mut re = 0.0;
            let mut im = 0.0;
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                re += orig[2 * t] * c - orig[2 * t + 1] * s;
                im += orig[2 * t] * s + orig[2 * t + 1] * c;
            }
            assert!((data[2 * k] - re).abs() < 1e-8, "re[{k}]");
            assert!((data[2 * k + 1] - im).abs() < 1e-8, "im[{k}]");
        }
    }

    #[test]
    fn fir_pairs_equal_direct() {
        let m = 9;
        let mut c = data::vector(m, 7);
        // Make symmetric.
        for t in 0..m / 2 {
            c[m - 1 - t] = c[t];
        }
        let x = data::vector(64 + m, 8);
        let direct = centro_fir(&x, &c, 64);
        let cp = centro_pairs(&c);
        let paired: Vec<f64> = (0..64)
            .map(|i| (0..cp.len()).map(|t| cp[t] * (x[i + t] + x[i + m - 1 - t])).sum::<f64>())
            .collect();
        for i in 0..64 {
            assert!((direct[i] - paired[i]).abs() < 1e-9, "y[{i}]");
        }
    }

    #[test]
    fn gemm_small_case() {
        let a = [1.0, 2.0, 3.0, 4.0]; // 2x2
        let b = [5.0, 6.0, 7.0, 8.0];
        let c = gemm(&a, &b, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn flop_counts_positive_and_scale() {
        assert!(solver_flops(16) > solver_flops(12));
        assert!(cholesky_flops(24) > cholesky_flops(16));
        assert!(qr_flops(24) > qr_flops(16));
        assert!(fft_flops(1024) > fft_flops(64));
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert!(fir_flops(1024, 199) > fir_flops(1024, 37));
        assert!(svd_sweep_flops(16) > 0);
    }
}
