//! Fast Fourier Transform (§IV-A6).
//!
//! "We test Forward and Backward FFTs using a size of 4096 and 20,000 for
//! 1D FFTs, and 10,000 for 2D FFTs. We use the standard Cooley-Tukey FFT
//! of 5·N·log2(N) number of flops for complex transform and
//! 2.5·N·log2(N) for real."
//!
//! Implemented here: an iterative radix-2 Cooley–Tukey complex transform
//! for power-of-two sizes, a Bluestein fallback for arbitrary sizes (the
//! paper's 20 000 and 10 000 are not powers of two), and a row-column 2D
//! transform. Generic over f32/f64.

use crate::scalar::Scalar;
use pvc_core::par;
use std::ops::{Add, Mul, Sub};

/// A complex number over a [`Scalar`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex<T> {
    pub re: T,
    pub im: T,
}

impl<T: Scalar> Complex<T> {
    /// 0 + 0i.
    pub fn zero() -> Self {
        Complex {
            re: T::ZERO,
            im: T::ZERO,
        }
    }

    /// re + im·i.
    pub fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }

    /// e^{iθ}.
    pub fn cis(theta: T) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// |z|².
    pub fn norm_sqr(self) -> T {
        self.re.mul_add(self.re, self.im * self.im)
    }

    /// Scales by a real factor.
    pub fn scale(self, s: T) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl<T: Scalar> Add for Complex<T> {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl<T: Scalar> Sub for Complex<T> {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl<T: Scalar> Mul for Complex<T> {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

impl Direction {
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Backward => 1.0,
        }
    }
}

/// Cooley–Tukey flop model for a complex transform: 5·N·log2(N) (§IV-A6).
pub fn fft_flops_c2c(n: usize) -> f64 {
    5.0 * n as f64 * (n as f64).log2()
}

/// Flop model for a real transform: 2.5·N·log2(N).
pub fn fft_flops_r2c(n: usize) -> f64 {
    2.5 * n as f64 * (n as f64).log2()
}

/// In-place iterative radix-2 Cooley–Tukey FFT. Length must be a power
/// of two. Backward transform is unnormalised (like FFTW/oneMKL);
/// callers divide by N for a round trip.
pub fn fft_pow2<T: Scalar>(data: &mut [Complex<T>], dir: Direction) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft_pow2 requires power-of-two length");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterfly passes.
    let sign = dir.sign();
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(T::from_f64(ang));
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::new(T::ONE, T::ZERO);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = chunk[k + half] * w;
                chunk[k] = u + v;
                chunk[k + half] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// FFT of arbitrary length via Bluestein's algorithm (chirp-z through a
/// zero-padded power-of-two convolution). Handles the paper's N = 20 000
/// and 10 000 sizes.
pub fn fft<T: Scalar>(data: &mut [Complex<T>], dir: Direction) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    if n.is_power_of_two() {
        return fft_pow2(data, dir);
    }
    // Bluestein: X_k = b*_k · IFFT(FFT(a) · FFT(b)) with
    // a_j = x_j·b*_j, b_j = e^{i·sign·π·j²/n}.
    let sign = dir.sign();
    let m = (2 * n - 1).next_power_of_two();
    let chirp: Vec<Complex<T>> = (0..n)
        .map(|j| {
            let jj = (j as f64) * (j as f64) % (2.0 * n as f64);
            Complex::cis(T::from_f64(sign * std::f64::consts::PI * jj / n as f64))
        })
        .collect();
    let mut a = vec![Complex::zero(); m];
    for j in 0..n {
        a[j] = data[j] * chirp[j];
    }
    let mut b = vec![Complex::zero(); m];
    b[0] = chirp[0].conj();
    for j in 1..n {
        let c = chirp[j].conj();
        b[j] = c;
        b[m - j] = c;
    }
    fft_pow2(&mut a, Direction::Forward);
    fft_pow2(&mut b, Direction::Forward);
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x = *x * *y;
    }
    fft_pow2(&mut a, Direction::Backward);
    let inv_m = T::from_f64(1.0 / m as f64);
    for k in 0..n {
        data[k] = (a[k] * chirp[k]).scale(inv_m);
    }
}

/// Row-column 2D FFT over a row-major `rows × cols` grid, parallelised
/// over lines (each row/column transform is independent).
pub fn fft_2d<T: Scalar>(data: &mut [Complex<T>], rows: usize, cols: usize, dir: Direction) {
    assert_eq!(data.len(), rows * cols);
    // Rows.
    par::for_each_chunk_mut(data, cols, |_, row| fft(row, dir));
    // Columns via transpose-FFT-transpose.
    let mut t = transpose(data, rows, cols);
    par::for_each_chunk_mut(&mut t, rows, |_, col| fft(col, dir));
    let back = transpose(&t, cols, rows);
    data.copy_from_slice(&back);
}

fn transpose<T: Scalar>(data: &[Complex<T>], rows: usize, cols: usize) -> Vec<Complex<T>> {
    let mut out = vec![Complex::zero(); rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = data[r * cols + c];
        }
    }
    out
}

/// Naive O(n²) DFT used as the test oracle.
pub fn dft_naive<T: Scalar>(data: &[Complex<T>], dir: Direction) -> Vec<Complex<T>> {
    let n = data.len();
    let sign = dir.sign();
    (0..n)
        .map(|k| {
            let mut acc = Complex::zero();
            for (j, &x) in data.iter().enumerate() {
                let ang = sign * 2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc + x * Complex::cis(T::from_f64(ang));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_core::check::check;
    use pvc_core::ensure;

    fn signal(n: usize, seed: u64) -> Vec<Complex<f64>> {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).max(3);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Complex::new(
                    (state % 1000) as f64 / 500.0 - 1.0,
                    ((state >> 10) % 1000) as f64 / 500.0 - 1.0,
                )
            })
            .collect()
    }

    fn close(a: &[Complex<f64>], b: &[Complex<f64>], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                (x.re - y.re).abs() < tol && (x.im - y.im).abs() < tol,
                "{x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn pow2_matches_naive_dft() {
        let x = signal(64, 9);
        let mut y = x.clone();
        fft_pow2(&mut y, Direction::Forward);
        let oracle = dft_naive(&x, Direction::Forward);
        close(&y, &oracle, 1e-9);
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for n in [3usize, 20, 100, 200] {
            let x = signal(n, n as u64);
            let mut y = x.clone();
            fft(&mut y, Direction::Forward);
            let oracle = dft_naive(&x, Direction::Forward);
            close(&y, &oracle, 1e-7);
        }
    }

    #[test]
    fn forward_backward_roundtrip() {
        for n in [128usize, 200, 4096] {
            let x = signal(n, 5);
            let mut y = x.clone();
            fft(&mut y, Direction::Forward);
            fft(&mut y, Direction::Backward);
            let scaled: Vec<_> = y.iter().map(|z| z.scale(1.0 / n as f64)).collect();
            close(&scaled, &x, 1e-8);
        }
    }

    #[test]
    fn parseval_theorem_holds() {
        let n = 1024;
        let x = signal(n, 11);
        let mut y = x.clone();
        fft(&mut y, Direction::Forward);
        let time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let freq: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time - freq).abs() / time < 1e-10);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 256;
        let mut x = vec![Complex::zero(); n];
        x[0] = Complex::new(1.0, 0.0);
        fft(&mut x, Direction::Forward);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-10 && z.im.abs() < 1e-10);
        }
    }

    #[test]
    fn fft_2d_roundtrip_nonsquare() {
        let (r, c) = (12, 20);
        let x = signal(r * c, 13);
        let mut y = x.clone();
        fft_2d(&mut y, r, c, Direction::Forward);
        fft_2d(&mut y, r, c, Direction::Backward);
        let scaled: Vec<_> = y.iter().map(|z| z.scale(1.0 / (r * c) as f64)).collect();
        close(&scaled, &x, 1e-8);
    }

    #[test]
    fn fft_2d_of_constant_is_delta() {
        let (r, c) = (8, 8);
        let mut x = vec![Complex::new(1.0, 0.0); r * c];
        fft_2d(&mut x, r, c, Direction::Forward);
        assert!((x[0].re - (r * c) as f64).abs() < 1e-9);
        for z in &x[1..] {
            assert!(z.re.abs() < 1e-9 && z.im.abs() < 1e-9);
        }
    }

    /// Max round-trip error of `x` through a transform pair, after the
    /// backward pass's 1/n normalisation.
    fn roundtrip_error(x: &[Complex<f64>], y: &[Complex<f64>]) -> f64 {
        let n = x.len() as f64;
        x.iter()
            .zip(y)
            .map(|(a, b)| (a.re - b.re / n).abs().max((a.im - b.im / n).abs()))
            .fold(0.0, f64::max)
    }

    /// The paper's 1D sizes (§IV-A6), 20 000 on the Bluestein path.
    #[test]
    fn paper_1d_sizes_roundtrip_below_1e_7() {
        for n in [4096usize, 20_000] {
            let x: Vec<Complex<f64>> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let mut y = x.clone();
            fft(&mut y, Direction::Forward);
            fft(&mut y, Direction::Backward);
            let err = roundtrip_error(&x, &y);
            assert!(err < 1e-7, "{n}-point 1D error {err}");
        }
    }

    #[test]
    fn fft_2d_roundtrip_100_square_below_1e_7() {
        let edge = 100;
        let x: Vec<Complex<f64>> = (0..edge * edge)
            .map(|i| Complex::new((i as f64 * 0.13).cos(), 0.0))
            .collect();
        let mut y = x.clone();
        fft_2d(&mut y, edge, edge, Direction::Forward);
        fft_2d(&mut y, edge, edge, Direction::Backward);
        let err = roundtrip_error(&x, &y);
        assert!(err < 1e-7, "2D error {err}");
    }

    #[test]
    fn flop_models_match_paper_formulas() {
        assert_eq!(fft_flops_c2c(4096), 5.0 * 4096.0 * 12.0);
        assert_eq!(fft_flops_r2c(4096), 2.5 * 4096.0 * 12.0);
    }

    #[test]
    fn single_precision_roundtrip() {
        let n = 512;
        let x: Vec<Complex<f32>> = (0..n)
            .map(|i| Complex::new((i as f32 * 0.1).sin(), (i as f32 * 0.05).cos()))
            .collect();
        let mut y = x.clone();
        fft(&mut y, Direction::Forward);
        fft(&mut y, Direction::Backward);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((a.re - b.re / n as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn prop_linearity() {
        check("fft::prop_linearity", 12, |g| {
            let n = g.usize_in(2..64);
            let s = g.u64_in(0..50);
            let x = signal(n, s);
            let y = signal(n, s + 1);
            let sum: Vec<Complex<f64>> = x.iter().zip(y.iter()).map(|(a, b)| *a + *b).collect();
            let mut fx = x.clone();
            let mut fy = y.clone();
            let mut fs = sum.clone();
            fft(&mut fx, Direction::Forward);
            fft(&mut fy, Direction::Forward);
            fft(&mut fs, Direction::Forward);
            for i in 0..n {
                let lin = fx[i] + fy[i];
                ensure!((lin.re - fs[i].re).abs() < 1e-7);
                ensure!((lin.im - fs[i].im).abs() < 1e-7);
            }
            Ok(())
        });
    }

    #[test]
    fn prop_roundtrip_any_length() {
        check("fft::prop_roundtrip_any_length", 12, |g| {
            let n = g.usize_in(2..200);
            let s = g.u64_in(0..50);
            let x = signal(n, s);
            let mut y = x.clone();
            fft(&mut y, Direction::Forward);
            fft(&mut y, Direction::Backward);
            for i in 0..n {
                ensure!((y[i].re / n as f64 - x[i].re).abs() < 1e-7);
                ensure!((y[i].im / n as f64 - x[i].im).abs() < 1e-7);
            }
            Ok(())
        });
    }
}
