//! FFT — radix-2 decimation-in-frequency, block distributed.

use std::f64::consts::PI;

use spasm_machine::{sync, Addr, MemCtx, ProcBody, SetupCtx};
use spasm_prng::Rng;

use crate::common::{close, proc_rng};
use crate::{App, BuiltApp, SizeClass};

/// A 1-D complex FFT with the structure the paper leans on (§6):
///
/// * elements are block-distributed; the first `log2(p)` stages read a
///   *contiguous* run of a remote processor's elements — spatial locality
///   that a cache block (4 words = 2 complex elements) exploits and the
///   cache-less LogP machine cannot: "FFT on the LogP machine incurs a
///   latency which is approximately four times that of the other two";
/// * communication is statically determinable (the partner index is
///   `k XOR half`), making FFT a "well-structured application with regular
///   communication patterns";
/// * a barrier separates stages.
///
/// Ping-pong buffers avoid intra-stage read/write hazards; the output is
/// produced in bit-reversed order and verified against a direct DFT.
#[derive(Debug, Clone, Copy)]
pub struct Fft {
    /// Transform length (power of two, ≥ processor count).
    pub n: usize,
}

/// Charged cycles per butterfly (complex mul + 2 adds + twiddle lookup).
const CYCLES_PER_BUTTERFLY: u64 = 40;

impl Fft {
    /// Creates the kernel at a preset size.
    pub fn new(size: SizeClass) -> Self {
        let n = match size {
            SizeClass::Test => 64,
            SizeClass::Small => 256,
            SizeClass::Full => 1_024,
        };
        Fft { n }
    }

    /// Creates the kernel with an explicit length.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is less than 2.
    pub fn with_len(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two >= 2"
        );
        Fft { n }
    }
}

/// The deterministic input signal.
fn input_signal(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = proc_rng(seed, usize::MAX);
    (0..n)
        .map(|_| (rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Direct O(N^2) DFT for verification: the sum stays the textbook one,
/// independent of the radix-2 code under test, but the N distinct twiddles
/// `e^(-2*pi*i*j/N)` are computed once instead of once per term.
fn reference_dft(x: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = x.len();
    let tw: Vec<(f64, f64)> = (0..n)
        .map(|j| (-2.0 * PI * j as f64 / n as f64).sin_cos())
        .collect();
    (0..n)
        .map(|k| {
            let mut acc = (0.0f64, 0.0f64);
            // Term t's twiddle is tw[k * t % n], stepped by k mod n.
            let mut at = 0;
            for &(re, im) in x {
                let (s, c) = tw[at];
                acc.0 += re * c - im * s;
                acc.1 += re * s + im * c;
                at += k;
                if at >= n {
                    at -= n;
                }
            }
            acc
        })
        .collect()
}

fn bit_reverse(k: usize, bits: u32) -> usize {
    k.reverse_bits() >> (usize::BITS - bits)
}

impl App for Fft {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn build(&self, setup: &mut SetupCtx, seed: u64) -> BuiltApp {
        let p = setup.nodes();
        let n = self.n;
        assert!(n >= p, "need at least one element per processor");
        let chunk = n / p;
        let signal = input_signal(n, seed);

        // Ping-pong buffers, each processor's slice homed locally.
        let alloc_buffer = |setup: &mut SetupCtx| -> Vec<Addr> {
            (0..p)
                .map(|home| setup.alloc_labeled(home, (chunk * 2) as u64, "signal"))
                .collect()
        };
        let a_bases = alloc_buffer(setup);
        let b_bases = alloc_buffer(setup);
        for (k, &(re, im)) in signal.iter().enumerate() {
            let base = a_bases[k / chunk];
            setup.init_f64(base.offset_words((k % chunk * 2) as u64), re);
            setup.init_f64(base.offset_words((k % chunk * 2 + 1) as u64), im);
        }
        let barrier = sync::Barrier::alloc(setup, 0, p);
        let stages = n.trailing_zeros() as usize;

        let elem_addr = move |bases: &[Addr], k: usize| -> Addr {
            bases[k / chunk].offset_words((k % chunk * 2) as u64)
        };

        let bodies: Vec<ProcBody> = (0..p)
            .map(|_| {
                let a = a_bases.clone();
                let b = b_bases.clone();
                let body: ProcBody = Box::new(move |me, ctx| {
                    let mem = MemCtx::new(ctx);
                    let mut bar = barrier.handle();
                    let (lo, hi) = (me * chunk, (me + 1) * chunk);
                    let mut src = &a;
                    let mut dst = &b;
                    let mut vals = Vec::with_capacity(4);
                    for stage in 0..stages {
                        let m = n >> stage;
                        let half = m / 2;
                        for k in lo..hi {
                            let pos = k % m;
                            let partner = if pos < half { k + half } else { k - half };
                            let pa = elem_addr(src, partner);
                            let oa = elem_addr(src, k);
                            let inputs = [pa, pa.offset_words(1), oa, oa.offset_words(1)];
                            mem.read_f64_many(inputs, &mut vals);
                            let (pre, pim, ore, oim) = (vals[0], vals[1], vals[2], vals[3]);
                            mem.compute(CYCLES_PER_BUTTERFLY);
                            let (re, im) = if pos < half {
                                // Upper half of the butterfly: u + v.
                                (ore + pre, oim + pim)
                            } else {
                                // Lower half: (u - v) * W_m^t.
                                let t = pos - half;
                                let ang = -2.0 * PI * t as f64 / m as f64;
                                let (s, c) = ang.sin_cos();
                                let (dre, dim) = (pre - ore, pim - oim);
                                (dre * c - dim * s, dre * s + dim * c)
                            };
                            let da = elem_addr(dst, k);
                            mem.write_f64(da, re);
                            mem.write_f64(da.offset_words(1), im);
                        }
                        bar.wait(&mem);
                        std::mem::swap(&mut src, &mut dst);
                    }
                });
                body
            })
            .collect();

        let final_bases = if stages.is_multiple_of(2) {
            a_bases
        } else {
            b_bases
        };
        let verify: crate::Verifier = Box::new(move |store| {
            let want = reference_dft(&signal);
            let bits = n.trailing_zeros();
            for (k, &(wre, wim)) in want.iter().enumerate() {
                // DIF output is bit-reversed.
                let at = bit_reverse(k, bits);
                let addr = elem_addr(&final_bases, at);
                let gre = store.read_f64(addr);
                let gim = store.read_f64(addr.offset_words(1));
                if !close(gre, wre, 1e-6) || !close(gim, wim, 1e-6) {
                    return Err(format!("X[{k}] = ({gre}, {gim}), want ({wre}, {wim})"));
                }
            }
            Ok(())
        });

        BuiltApp { bodies, verify }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_machine::{Engine, MachineKind};
    use spasm_topology::Topology;

    /// The reference as it was before the twiddle table: `sin_cos` per
    /// term, N^2 calls. The oracle the table is held to, bit for bit.
    fn reference_dft_per_term(x: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = (0.0f64, 0.0f64);
                for (t, &(re, im)) in x.iter().enumerate() {
                    let ang = -2.0 * PI * (k * t % n) as f64 / n as f64;
                    let (s, c) = ang.sin_cos();
                    acc.0 += re * c - im * s;
                    acc.1 += re * s + im * c;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn twiddle_table_leaves_every_reference_value_bit_identical() {
        for n in [8usize, 64, 256] {
            let x = input_signal(n, 1995);
            let bits = |v: Vec<(f64, f64)>| -> Vec<(u64, u64)> {
                v.iter()
                    .map(|&(re, im)| (re.to_bits(), im.to_bits()))
                    .collect()
            };
            assert_eq!(
                bits(reference_dft(&x)),
                bits(reference_dft_per_term(&x)),
                "n = {n}"
            );
        }
    }

    #[test]
    fn reference_dft_of_impulse_is_flat() {
        let mut x = vec![(0.0, 0.0); 8];
        x[0] = (1.0, 0.0);
        for (re, im) in reference_dft(&x) {
            assert!((re - 1.0).abs() < 1e-12 && im.abs() < 1e-12);
        }
    }

    #[test]
    fn bit_reverse_basics() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(5, 4), 10);
    }

    #[test]
    fn fft_verifies_on_every_machine() {
        for kind in [
            MachineKind::Pram,
            MachineKind::Target,
            MachineKind::LogP,
            MachineKind::CLogP,
        ] {
            let topo = Topology::hypercube(4);
            let mut setup = SetupCtx::new(4);
            let built = Fft::with_len(32).build(&mut setup, 5);
            let report = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            (built.verify)(&report.final_store).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn fft_single_processor() {
        let topo = Topology::full(1);
        let mut setup = SetupCtx::new(1);
        let built = Fft::with_len(16).build(&mut setup, 1);
        let r = Engine::new(MachineKind::Pram, &topo, setup, built.bodies)
            .run()
            .unwrap();
        (built.verify)(&r.final_store).unwrap();
    }

    #[test]
    fn fft_logp_latency_is_about_4x_clogp() {
        // The paper's Figure 1 shape: ignoring spatial locality costs ~4x
        // latency overhead (4 words per 32-byte block).
        let mut latency = std::collections::HashMap::new();
        for kind in [MachineKind::LogP, MachineKind::CLogP] {
            let topo = Topology::full(4);
            let mut setup = SetupCtx::new(4);
            let built = Fft::with_len(64).build(&mut setup, 5);
            let r = Engine::new(kind, &topo, setup, built.bodies).run().unwrap();
            latency.insert(kind.to_string(), r.totals.latency.as_ns());
        }
        let ratio = latency["logp"] as f64 / latency["clogp"] as f64;
        assert!(
            (2.5..=5.5).contains(&ratio),
            "latency ratio should be ~4, got {ratio:.2}"
        );
    }
}
