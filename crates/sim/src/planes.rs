//! Flat row-major storage of a square complex matrix as two `f64` planes
//! (real and imaginary parts), with the in-place row operations the
//! accumulator and the exact evolution are built from.

use marqsim_linalg::{Complex, Matrix};

/// One row as `(real, imaginary)` slices.
pub(crate) type Row<'a> = (&'a [f64], &'a [f64]);

/// One row as mutable `(real, imaginary)` slices.
pub(crate) type RowMut<'a> = (&'a mut [f64], &'a mut [f64]);

/// A `dim × dim` complex matrix: `re[i * dim + j] + i·im[i * dim + j]`.
#[derive(Debug, Clone)]
pub(crate) struct Planes {
    dim: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Planes {
    /// The `dim × dim` zero matrix.
    pub fn zeros(dim: usize) -> Self {
        Planes {
            dim,
            re: vec![0.0; dim * dim],
            im: vec![0.0; dim * dim],
        }
    }

    /// The `dim × dim` identity.
    pub fn identity(dim: usize) -> Self {
        let mut planes = Planes::zeros(dim);
        for k in 0..dim {
            planes.re[k * dim + k] = 1.0;
        }
        planes
    }

    /// The side length.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> Row<'_> {
        let range = i * self.dim..(i + 1) * self.dim;
        (&self.re[range.clone()], &self.im[range])
    }

    /// Row `i`, mutably.
    pub fn row_mut(&mut self, i: usize) -> RowMut<'_> {
        let range = i * self.dim..(i + 1) * self.dim;
        (&mut self.re[range.clone()], &mut self.im[range])
    }

    /// Rows `a < b`, mutably.
    pub fn row_pair_mut(&mut self, a: usize, b: usize) -> (RowMut<'_>, RowMut<'_>) {
        debug_assert!(a < b);
        let dim = self.dim;
        let (re_lo, re_hi) = self.re.split_at_mut(b * dim);
        let (im_lo, im_hi) = self.im.split_at_mut(b * dim);
        (
            (
                &mut re_lo[a * dim..(a + 1) * dim],
                &mut im_lo[a * dim..(a + 1) * dim],
            ),
            (&mut re_hi[..dim], &mut im_hi[..dim]),
        )
    }

    /// Entry `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> Complex {
        let at = i * self.dim + j;
        Complex::new(self.re[at], self.im[at])
    }

    /// Adds `z` to entry `(i, j)`.
    pub fn add_at(&mut self, i: usize, j: usize, z: Complex) {
        let at = i * self.dim + j;
        self.re[at] += z.re;
        self.im[at] += z.im;
    }

    /// Replaces rows `a < b` with `(ca · row_a + cb · row_b,
    /// da · row_a + db · row_b)`.
    pub fn mix_rows(&mut self, a: usize, b: usize, [ca, cb]: [Complex; 2], [da, db]: [Complex; 2]) {
        let ((ar, ai), (br, bi)) = self.row_pair_mut(a, b);
        for (((ar, ai), br), bi) in ar.iter_mut().zip(ai).zip(br).zip(bi) {
            let (xr, xi, yr, yi) = (*ar, *ai, *br, *bi);
            *ar = ca.re * xr - ca.im * xi + cb.re * yr - cb.im * yi;
            *ai = ca.re * xi + ca.im * xr + cb.re * yi + cb.im * yr;
            *br = da.re * xr - da.im * xi + db.re * yr - db.im * yi;
            *bi = da.re * xi + da.im * xr + db.re * yi + db.im * yr;
        }
    }

    /// Multiplies row `i` by `phase`.
    pub fn scale_row(&mut self, i: usize, phase: Complex) {
        let (re, im) = self.row_mut(i);
        for (r, m) in re.iter_mut().zip(im) {
            let (xr, xi) = (*r, *m);
            *r = phase.re * xr - phase.im * xi;
            *m = phase.re * xi + phase.im * xr;
        }
    }

    /// Writes `self · self` into `out`, skipping the exact zeros of the
    /// left factor (block-diagonal unitaries are mostly zeros).
    pub fn square_into(&self, out: &mut Planes) {
        debug_assert_eq!(out.dim, self.dim);
        for i in 0..self.dim {
            let (out_re, out_im) = out.row_mut(i);
            out_re.fill(0.0);
            out_im.fill(0.0);
            for k in 0..self.dim {
                let a = self.get(i, k);
                if a != Complex::ZERO {
                    axpy((&mut *out_re, &mut *out_im), a, self.row(k));
                }
            }
        }
    }

    /// Exports the matrix in dense form.
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.dim, self.dim, |i, j| self.get(i, j))
    }
}

/// `dst += a · src` over one row.
pub(crate) fn axpy((dst_re, dst_im): RowMut<'_>, a: Complex, (src_re, src_im): Row<'_>) {
    for (((dr, di), sr), si) in dst_re.iter_mut().zip(dst_im).zip(src_re).zip(src_im) {
        *dr += a.re * sr - a.im * si;
        *di += a.re * si + a.im * sr;
    }
}
