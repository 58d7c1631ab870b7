//! FFT — the SPLASH-2 radix-√n six-step 1-D FFT.
//!
//! The n-point dataset is viewed as a √n x √n complex matrix; each
//! processor owns a contiguous band of rows. The computation alternates
//! row-local FFTs with three all-to-all **transposes**, which are the only
//! communication phases: coarse-grained, single-writer, barrier-separated —
//! exactly the behaviour the paper relies on when it calls FFT a
//! "coarse-grained-access, single-writer application" with little protocol
//! activity but real bandwidth demands.
//!
//! As in SPLASH-2, the roots of unity come from precomputed tables rather
//! than a sine and cosine per point: `Roots` keeps two √n-entry tables
//! and forms each n-th root with one complex multiply.

use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::Arc;

use ssm_proto::{Proc, SharedVec, ThreadBody, Workload, World};

use crate::common::{
    block_range, fft_cycles, fft_in_place, read_block, write_block, Cx, COPY, FLOP,
};

/// The FFT workload. `n` complex points (a power of four so the matrix is
/// square).
#[derive(Debug)]
pub struct Fft {
    n: usize,
    m: usize,
    result: RefCell<Option<SharedVec<f64>>>,
}

/// Spectral spike used for initialization/verification: the input is a sum
/// of two complex exponentials, so the spectrum is known analytically.
const K0: usize = 5;
const A0: Cx = Cx { re: 1.0, im: 0.5 };
const A1: Cx = Cx { re: -0.75, im: 2.0 };

impl Fft {
    /// Creates an `n`-point FFT.
    ///
    /// # Panics
    ///
    /// Panics unless `n` is a power of four (so √n is a power of two) and
    /// at least 16.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 16 && n.is_power_of_two() && n.trailing_zeros().is_multiple_of(2),
            "n must be a power of four >= 16 (square matrix form)"
        );
        let m = 1usize << (n.trailing_zeros() / 2);
        Fft {
            n,
            m,
            result: RefCell::new(None),
        }
    }

    /// Number of points.
    pub fn points(&self) -> usize {
        self.n
    }

    fn second_spike(&self) -> usize {
        self.n / 3 + 1
    }

    fn input(&self, roots: &Roots, j: usize) -> Cx {
        let w0 = roots.get(K0 * j % self.n);
        let w1 = roots.get(self.second_spike() * j % self.n);
        A0 * w0 + A1 * w1
    }
}

/// The n-th roots of unity `cis(2πk/n)` for an `n = m * m`-point FFT, from
/// two m-entry tables: `k = q*m + r` gives `coarse[q] * fine[r]`, where
/// `coarse[q] = cis(2πq/m)` and `fine[r] = cis(2πr/n)`.
#[derive(Debug)]
struct Roots {
    /// `log2 m`, to split `k` into `k / m` and `k % m`.
    shift: u32,
    coarse: Vec<Cx>,
    fine: Vec<Cx>,
}

impl Roots {
    /// The tables for `n = m * m` points (`m` a power of two).
    fn new(m: usize) -> Self {
        let n = (m * m) as f64;
        Roots {
            shift: m.trailing_zeros(),
            coarse: (0..m)
                .map(|q| Cx::cis(2.0 * PI * q as f64 / m as f64))
                .collect(),
            fine: (0..m).map(|r| Cx::cis(2.0 * PI * r as f64 / n)).collect(),
        }
    }

    /// `cis(2πk/n)` for `k < n`.
    #[inline]
    fn get(&self, k: usize) -> Cx {
        self.coarse[k >> self.shift] * self.fine[k & (self.fine.len() - 1)]
    }
}

/// One processor's transpose: `dst` rows `r0..r1` receive `src` columns
/// `r0..r1` (reads grouped into the contiguous per-source-row segments the
/// blocked SPLASH-2 transpose uses).
fn transpose_band(
    p: &Proc<'_>,
    src: &SharedVec<f64>,
    dst: &SharedVec<f64>,
    m: usize,
    r0: usize,
    r1: usize,
) {
    let width = r1 - r0;
    if width == 0 {
        return;
    }
    let mut bands: Vec<Vec<Cx>> = vec![Vec::with_capacity(m); width];
    for j in 0..m {
        let seg = read_block(p, src, (j * m + r0) * 2, width * 2);
        p.compute(width as u64 * COPY);
        for t in 0..width {
            bands[t].push(Cx::new(seg[2 * t], seg[2 * t + 1]));
        }
    }
    for (t, r) in (r0..r1).enumerate() {
        let flat: Vec<f64> = bands[t].iter().flat_map(|c| [c.re, c.im]).collect();
        write_block(p, dst, r * m * 2, &flat);
    }
}

/// One processor's row-FFT pass over its band, applying the six-step
/// twiddle factors `W_n^{r*k1}` after the transform when given the roots.
fn fft_band(
    p: &Proc<'_>,
    v: &SharedVec<f64>,
    roots: Option<&Roots>,
    m: usize,
    r0: usize,
    r1: usize,
) {
    for r in r0..r1 {
        let seg = read_block(p, v, r * m * 2, m * 2);
        let mut row: Vec<Cx> = (0..m)
            .map(|i| Cx::new(seg[2 * i], seg[2 * i + 1]))
            .collect();
        fft_in_place(&mut row, false);
        p.compute(fft_cycles(m));
        if let Some(roots) = roots {
            for (k1, c) in row.iter_mut().enumerate() {
                *c = *c * roots.get(r * k1).conj();
            }
            p.compute(m as u64 * 6 * FLOP);
        }
        let flat: Vec<f64> = row.iter().flat_map(|c| [c.re, c.im]).collect();
        write_block(p, v, r * m * 2, &flat);
    }
}

impl Workload for Fft {
    fn name(&self) -> String {
        format!("FFT(n={})", self.n)
    }

    fn mem_bytes(&self) -> usize {
        // data + scratch (+ page slack for alignment).
        self.n * 16 * 2 + 64 * 1024
    }

    fn spawn(&self, world: &mut World, nprocs: usize) -> Vec<ThreadBody> {
        assert!(
            nprocs <= self.m,
            "need at least one matrix row per processor"
        );
        let data = world.alloc_vec::<f64>(self.n * 2);
        let scratch = world.alloc_vec::<f64>(self.n * 2);
        let bar = world.alloc_barrier();
        let roots = Arc::new(Roots::new(self.m));
        let m = self.m;
        let mut row = Vec::with_capacity(2 * m);
        for r in 0..m {
            row.clear();
            row.extend((r * m..(r + 1) * m).flat_map(|j| {
                let c = self.input(&roots, j);
                [c.re, c.im]
            }));
            data.write_direct(2 * r * m, &row);
        }
        *self.result.borrow_mut() = Some(scratch.clone());
        (0..nprocs)
            .map(|pid| {
                let data = data.clone();
                let scratch = scratch.clone();
                let roots = roots.clone();
                let body: ThreadBody = Box::new(move |p: &Proc<'_>| {
                    let (r0, r1) = block_range(m, p.nprocs(), pid);
                    // Step 1: transpose data -> scratch.
                    transpose_band(p, &data, &scratch, m, r0, r1);
                    p.barrier(bar);
                    // Step 2+3: row FFTs on scratch with twiddles.
                    fft_band(p, &scratch, Some(&roots), m, r0, r1);
                    p.barrier(bar);
                    // Step 4: transpose scratch -> data.
                    transpose_band(p, &scratch, &data, m, r0, r1);
                    p.barrier(bar);
                    // Step 5: row FFTs on data.
                    fft_band(p, &data, None, m, r0, r1);
                    p.barrier(bar);
                    // Step 6: final transpose data -> scratch (natural order).
                    transpose_band(p, &data, &scratch, m, r0, r1);
                    p.barrier(bar);
                });
                body
            })
            .collect()
    }

    fn verify(&self) -> Result<(), String> {
        let guard = self.result.borrow();
        let out = guard.as_ref().ok_or("spawn() was never called")?;
        let n = self.n as f64;
        let read = |k: usize| Cx::new(out.get_direct(2 * k), out.get_direct(2 * k + 1));
        let close = |got: Cx, want: Cx, k: usize| -> Result<(), String> {
            let err = (got - want).norm2().sqrt();
            if err > 1e-6 * n {
                Err(format!(
                    "bin {k}: got ({:.3},{:.3}), want ({:.3},{:.3})",
                    got.re, got.im, want.re, want.im
                ))
            } else {
                Ok(())
            }
        };
        // Spikes at K0 and second_spike with amplitude a*n; near-zero
        // elsewhere.
        close(read(K0), Cx::new(A0.re * n, A0.im * n), K0)?;
        let k1 = self.second_spike();
        close(read(k1), Cx::new(A1.re * n, A1.im * n), k1)?;
        for probe in [0usize, 1, self.n / 2, self.n - 1] {
            if probe != K0 && probe != k1 {
                close(read(probe), Cx::default(), probe)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssm_core::{sequential_baseline, Protocol, SimBuilder};

    #[test]
    fn sequential_fft_verifies() {
        let w = Fft::new(256);
        let r = sequential_baseline(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn parallel_fft_verifies_under_hlrc() {
        let w = Fft::new(256);
        let r = SimBuilder::new(Protocol::Hlrc).procs(4).run(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
        assert_eq!(r.counters.barriers, 5);
        assert!(r.counters.fetches > 0, "transposes must communicate");
    }

    #[test]
    fn parallel_fft_verifies_under_sc_coarse() {
        let w = Fft::new(256);
        let r = SimBuilder::new(Protocol::Sc)
            .procs(4)
            .sc_block(4096)
            .run(&w);
        assert!(r.verify_error.is_none(), "{:?}", r.verify_error);
    }

    #[test]
    fn parallel_beats_sequential_on_ideal() {
        let w = Fft::new(1024);
        let seq = sequential_baseline(&w).total_cycles;
        let w = Fft::new(1024);
        let par = SimBuilder::new(Protocol::Ideal)
            .procs(4)
            .run(&w)
            .total_cycles;
        assert!(
            (seq as f64 / par as f64) > 2.0,
            "ideal speedup too low: {seq}/{par}"
        );
    }

    /// Whether the table root for `k` is within 1e-15 of `Cx::cis` in
    /// both components.
    fn root_matches_cis(roots: &Roots, n: usize, k: usize) {
        let got = roots.get(k);
        let want = Cx::cis(2.0 * PI * k as f64 / n as f64);
        assert!(
            (got.re - want.re).abs() <= 1e-15 && (got.im - want.im).abs() <= 1e-15,
            "n {n}, k {k}: table {got:?}, cis {want:?}"
        );
    }

    #[test]
    fn table_roots_match_cis() {
        // Every root at n = 4^6.
        let roots = Roots::new(64);
        for k in 0..4096 {
            root_matches_cis(&roots, 4096, k);
        }
        // Seeded samples at the bench size n = 2^20, plus both ends.
        let roots = Roots::new(1024);
        let mut rng = crate::common::Rng::new(17);
        for k in [0, 1, 1023, 1024, (1 << 20) - 1] {
            root_matches_cis(&roots, 1 << 20, k);
        }
        for _ in 0..20_000 {
            root_matches_cis(&roots, 1 << 20, rng.gen_range(1 << 20) as usize);
        }
    }

    #[test]
    #[should_panic(expected = "power of four")]
    fn rejects_non_square_sizes() {
        let _ = Fft::new(512);
    }
}
