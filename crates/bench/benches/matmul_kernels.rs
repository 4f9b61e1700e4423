//! Criterion bench for the cache-blocked matmul kernel and the
//! reduced-precision kernels.
//!
//! Measures the packed GEBP kernel behind `Tensor::matmul` across the square
//! sizes that dominate this workload (64–512), its transposed variants, and —
//! as the speedup reference — a faithful copy of the seed's scalar
//! `matmul_rows` kernel (branchy zero-skip row loop). The acceptance bar for
//! the kernel overhaul is ≥ 3× over that scalar kernel at 256×256×256 on a
//! single thread.
//!
//! The `matmul_f16` group times the runtime-dispatched f16 kernel against
//! its scalar leg at the same 256×256×256 shape, asserts the two legs are
//! **bit-identical** (the invariant `crates/tensor` pins in both CI matrix
//! legs), and writes the comparison to `BENCH_matmul.json` at the workspace
//! root — the case `fitact bench-gate --case matmul_f16` gates against
//! `ci/golden/bench_baseline.json`. Run with `cargo bench -- --test` for
//! the CI smoke mode (one untimed pass, JSON flagged as a smoke run).

use criterion::{black_box, BenchmarkId, Criterion};
use fitact_tensor::half::f32_to_f16;
use fitact_tensor::json::JsonValue;
use fitact_tensor::matmul::{matmul_into, serial_scope, Layout};
use fitact_tensor::simd;
use std::time::Instant;

/// The seed repository's scalar kernel, kept verbatim as the baseline: row
/// loop, `a_val == 0.0` skip, axpy inner loop over `b` rows.
fn seed_scalar_kernel(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_val) in a_row.iter().enumerate() {
            if a_val == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for j in 0..n {
                out_row[j] += a_val * b_row[j];
            }
        }
    }
}

fn operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
    let gen = |len: usize, salt: u32| -> Vec<f32> {
        (0..len)
            .map(|i| {
                ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) % 1000) as f32 / 500.0
                    - 1.0
            })
            .collect()
    };
    (gen(m * k, 1), gen(k * n, 2))
}

fn bench_square_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    for size in [64usize, 128, 256, 512] {
        let (a, b) = operands(size, size, size);
        let mut out = vec![0.0f32; size * size];
        group.bench_with_input(BenchmarkId::new("blocked", size), &(), |bench, ()| {
            bench.iter(|| {
                matmul_into(
                    Layout::Nn,
                    black_box(&a),
                    black_box(&b),
                    &mut out,
                    size,
                    size,
                    size,
                    false,
                );
            });
        });
        group.bench_with_input(BenchmarkId::new("seed_scalar", size), &(), |bench, ()| {
            bench.iter(|| {
                out.fill(0.0);
                seed_scalar_kernel(black_box(&a), black_box(&b), &mut out, size, size, size);
            });
        });
    }
    group.finish();
}

fn bench_transposed_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_variants");
    group.sample_size(20);
    let size = 256usize;
    let (a, b) = operands(size, size, size);
    let mut out = vec![0.0f32; size * size];
    for (name, layout) in [("nn", Layout::Nn), ("tn", Layout::Tn), ("nt", Layout::Nt)] {
        group.bench_with_input(BenchmarkId::new(name, size), &(), |bench, ()| {
            bench.iter(|| {
                matmul_into(
                    layout,
                    black_box(&a),
                    black_box(&b),
                    &mut out,
                    size,
                    size,
                    size,
                    false,
                );
            });
        });
    }
    group.finish();
}

/// f16 operands for the reduced-precision case: the same deterministic
/// values as [`operands`], with the weight matrix stored as f16 words.
fn f16_operands(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<u16>, Vec<f32>) {
    let (x, w) = operands(m, k, n);
    let words: Vec<u16> = w.iter().map(|&v| f32_to_f16(v)).collect();
    let bias: Vec<f32> = (0..n).map(|i| (i % 7) as f32 / 7.0 - 0.5).collect();
    (x, words, bias)
}

fn bench_f16_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_f16");
    group.sample_size(20);
    let size = 256usize;
    let (x, w, bias) = f16_operands(size, size, size);
    let mut out = vec![0.0f32; size * size];
    group.bench_with_input(BenchmarkId::new("dispatched", size), &(), |bench, ()| {
        bench.iter(|| {
            serial_scope(|| {
                simd::matmul_f16(
                    black_box(&x),
                    black_box(&w),
                    Some(&bias),
                    &mut out,
                    size,
                    size,
                    size,
                );
            });
        });
    });
    group.bench_with_input(BenchmarkId::new("scalar", size), &(), |bench, ()| {
        bench.iter(|| {
            simd::matmul_f16_scalar(
                black_box(&x),
                black_box(&w),
                Some(&bias),
                &mut out,
                size,
                size,
                size,
            );
        });
    });
    group.finish();
}

/// Times the dispatched f16 kernel against its scalar leg (median of `reps`
/// single-threaded passes), asserts bit-identity between the legs, and
/// returns the `BENCH_matmul.json` document. `speedup` is what the CI
/// bench-trend job gates: it collapses to ~1 if dispatch stops taking the
/// SIMD leg.
fn emit_matmul_f16_json(smoke: bool) -> JsonValue {
    let size = 256usize;
    let (x, w, bias) = f16_operands(size, size, size);
    let reps = if smoke { 1 } else { 7 };
    let time_kernel = |kernel: &dyn Fn(&mut [f32])| -> (f64, Vec<f32>) {
        serial_scope(|| {
            let mut out = vec![0.0f32; size * size];
            kernel(&mut out); // warm-up
            let mut seconds = Vec::with_capacity(reps);
            for _ in 0..reps {
                let start = Instant::now();
                kernel(&mut out);
                seconds.push(start.elapsed().as_secs_f64());
            }
            seconds.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
            (seconds[seconds.len() / 2], out)
        })
    };
    let (dispatched_s, dispatched_out) = time_kernel(&|out| {
        simd::matmul_f16(&x, &w, Some(&bias), out, size, size, size);
    });
    let (scalar_s, scalar_out) = time_kernel(&|out| {
        simd::matmul_f16_scalar(&x, &w, Some(&bias), out, size, size, size);
    });
    let bit_identical = dispatched_out
        .iter()
        .zip(&scalar_out)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        bit_identical,
        "the dispatched f16 kernel must be bit-identical to the scalar leg"
    );
    let speedup = scalar_s / dispatched_s.max(1e-12);
    println!(
        "matmul_f16: {size}^3 dispatched ({backend}) {d:.3} ms, scalar {s:.3} ms, {speedup:.2}x",
        backend = simd::backend_name(),
        d = 1e3 * dispatched_s,
        s = 1e3 * scalar_s,
    );
    JsonValue::object([
        ("bench", "matmul_kernels".into()),
        ("case", "matmul_f16".into()),
        ("smoke", smoke.into()),
        ("shape", format!("{size}x{size}x{size}").into()),
        ("backend", simd::backend_name().into()),
        ("dispatched_ms", (1e3 * dispatched_s).into()),
        ("scalar_ms", (1e3 * scalar_s).into()),
        ("speedup", speedup.into()),
        ("bit_identical", bit_identical.into()),
    ])
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--test");
    let mut criterion = Criterion::default();
    bench_square_sizes(&mut criterion);
    bench_transposed_variants(&mut criterion);
    bench_f16_kernel(&mut criterion);
    let json = emit_matmul_f16_json(smoke);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_matmul.json");
    std::fs::write(&path, format!("{json}\n")).expect("BENCH_matmul.json is writable");
    println!("matmul_kernels -> {}", path.display());
}
