//! Native run time of the emitted C: harnesses built once with
//! `frodo_sim::native`'s flags, run in separate processes, every checksum
//! checked against the reference simulator.

use crate::compile::{cold_service, compile_slx};
use crate::{stats, Tally};
use frodo_codegen::{emit_c_harness_with, lir::Program, GeneratorStyle, VectorMode};
use frodo_driver::CompileOptions;
use frodo_graph::Dfg;
use frodo_model::{BlockKind, Tensor};
use frodo_obs::Trace;
use frodo_sim::{program_flops, CostModel, MemoryReport, ReferenceSimulator};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The optimization flags `frodo_sim::native::compile_and_run` builds with.
pub const GCC_FLAGS: [&str; 2] = ["-O3", "-march=native"];

/// Step count target: a model's harnesses run about this many FLOPs of its
/// most expensive program per process.
const FLOPS_PER_PROCESS: u64 = 40_000_000;
/// Bounds on the step count of one process.
const MIN_ITERS: u64 = 200;
const MAX_ITERS: u64 = 200_000;

/// Relative tolerance between a native checksum and the reference one.
/// The emitted C may reassociate sums and contract multiply-adds, so bits
/// can differ; anything beyond rounding is a wrong result.
pub const CHECKSUM_RTOL: f64 = 1e-9;

/// What one harness runs: a generator style at default options, or FRODO
/// with one opt-in codegen option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// A generator style with default options.
    Style(GeneratorStyle),
    /// FRODO with `--window-reuse`.
    WindowReuse,
    /// FRODO with `--vectorize batch` (the host's lane count).
    VectorizeBatch,
}

impl Variant {
    /// The four styles, Simulink first.
    pub const STYLES: [Variant; 4] = [
        Variant::Style(GeneratorStyle::SimulinkCoder),
        Variant::Style(GeneratorStyle::DfSynth),
        Variant::Style(GeneratorStyle::Hcg),
        Variant::Style(GeneratorStyle::Frodo),
    ];
    /// Simulink and FRODO: what the end-to-end metrics need.
    pub const HEADLINE: [Variant; 2] = [
        Variant::Style(GeneratorStyle::SimulinkCoder),
        Variant::Style(GeneratorStyle::Frodo),
    ];
    /// Every style plus both opt-in FRODO options.
    pub const ALL: [Variant; 6] = [
        Variant::Style(GeneratorStyle::SimulinkCoder),
        Variant::Style(GeneratorStyle::DfSynth),
        Variant::Style(GeneratorStyle::Hcg),
        Variant::Style(GeneratorStyle::Frodo),
        Variant::WindowReuse,
        Variant::VectorizeBatch,
    ];

    /// Name used in metric rows and file names.
    pub fn label(self) -> String {
        match self {
            Variant::Style(s) => s.label().to_lowercase(),
            Variant::WindowReuse => "frodo-window-reuse".into(),
            Variant::VectorizeBatch => "frodo-vectorize-batch".into(),
        }
    }

    fn style(self) -> GeneratorStyle {
        match self {
            Variant::Style(s) => s,
            _ => GeneratorStyle::Frodo,
        }
    }

    fn options(self) -> CompileOptions {
        let b = CompileOptions::builder();
        match self {
            Variant::Style(_) => b,
            Variant::WindowReuse => b.window_reuse(true),
            Variant::VectorizeBatch => b.vectorize(VectorMode::Batch(CostModel::x86_gcc().lanes())),
        }
        .build()
    }
}

/// One built harness.
#[derive(Debug)]
pub struct Harness {
    /// Table-1 model name.
    pub model: String,
    /// What it runs.
    pub variant: Variant,
    /// The executable.
    pub bin: PathBuf,
    /// Steps per process.
    pub iters: u64,
    /// The reference simulator's checksum after `iters` steps.
    pub expected: f64,
    /// gcc wall time, milliseconds.
    pub gcc_ms: f64,
}

/// The built harnesses of one set-up.
#[derive(Debug, Default)]
pub struct NativeSetup {
    /// In model order, variants in the order requested.
    pub harnesses: Vec<Harness>,
    /// `MemoryReport::total_bytes` of the FRODO programs, in KiB.
    pub static_kib: f64,
}

/// The C harness's input fill (`emit_c_harness_with`'s LCG), one vector
/// per input buffer in `program.inputs()` order.
pub fn lcg_inputs(program: &Program) -> Vec<(usize, Vec<f64>)> {
    let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
    program
        .inputs()
        .into_iter()
        .map(|(idx, id)| {
            let data = (0..program.buffer(id).len)
                .map(|_| {
                    lcg = lcg
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (lcg >> 40) as f64 / 16_777_216.0 - 0.5
                })
                .collect();
            (idx, data)
        })
        .collect()
}

/// Runs the reference simulator of `model_slx` for `steps` steps on the
/// harness inputs of `program` and sums the final outputs the way the
/// harness does.
///
/// # Errors
///
/// A model or simulation error.
pub fn reference_checksum(model_slx: &[u8], program: &Program, steps: u64) -> Result<f64, String> {
    let model = frodo_slx::read_slx(model_slx, &Trace::noop()).map_err(|e| e.to_string())?;
    let dfg = Dfg::new(model, &Trace::noop()).map_err(|e| e.to_string())?;
    let mut shapes = std::collections::BTreeMap::new();
    for b in dfg.model().blocks() {
        if let BlockKind::Inport { index, shape } = b.kind {
            shapes.insert(index, shape);
        }
    }
    let mut inputs: Vec<(usize, Tensor)> = lcg_inputs(program)
        .into_iter()
        .map(|(idx, data)| {
            let shape = shapes
                .get(&idx)
                .copied()
                .ok_or(format!("no inport {idx}"))?;
            Ok((idx, Tensor::new(shape, data)))
        })
        .collect::<Result<_, String>>()?;
    inputs.sort_by_key(|(idx, _)| *idx);
    let inputs: Vec<Tensor> = inputs.into_iter().map(|(_, t)| t).collect();
    let mut sim = ReferenceSimulator::new(dfg);
    let mut outputs = Vec::new();
    for _ in 0..steps {
        outputs = sim.step(&inputs).map_err(|e| e.to_string())?;
    }
    Ok(outputs.iter().flat_map(|t| t.data().iter()).sum())
}

/// Whether a native checksum matches the reference within
/// [`CHECKSUM_RTOL`].
pub fn checksum_matches(native: f64, reference: f64) -> bool {
    (native - reference).abs() <= CHECKSUM_RTOL * reference.abs().max(1.0)
}

/// Compiles every Table-1 model in each of `variants` from `.slx` bytes
/// through a cold `CompileService`, emits its timing harness, builds it
/// with `gcc` (two at a time) under `dir`, and computes the reference
/// checksum each harness must print.
///
/// # Errors
///
/// Missing `gcc` or an unusable build directory. Compile, gcc and
/// reference failures are counted in `tally` and leave the harness out.
pub fn build(dir: &Path, variants: &[Variant], tally: &mut Tally) -> Result<NativeSetup, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    if !Command::new("gcc")
        .arg("--version")
        .output()
        .is_ok_and(|o| o.status.success())
    {
        return Err("gcc is not available".into());
    }
    let svc = cold_service();
    let mut setup = NativeSetup::default();
    let mut pending = Vec::new();
    for bench in frodo_benchmodels::all() {
        let slx = frodo_slx::write_slx(&bench.model).map_err(|e| format!("{}: {e}", bench.name))?;
        let mut programs = Vec::new();
        for &v in variants {
            let name = format!("{}/{}", bench.name, v.label());
            let Some(out) = tally.ok(compile_slx(
                &svc,
                &name,
                &slx,
                v.style(),
                v.options(),
                &Trace::noop(),
            )) else {
                continue;
            };
            let Some(program) = out.program else {
                tally.check(false, || format!("{name}: no program from a cold compile"));
                continue;
            };
            if v == Variant::Style(GeneratorStyle::Frodo) {
                setup.static_kib += MemoryReport::of(&program).total_bytes() as f64 / 1024.0;
            }
            programs.push((v, out.code, program));
        }
        let Some(max_flops) = programs.iter().map(|(_, _, p)| program_flops(p)).max() else {
            continue;
        };
        let iters = (FLOPS_PER_PROCESS / max_flops.max(1)).clamp(MIN_ITERS, MAX_ITERS);
        // every variant computes the same function on the same inputs, so
        // one reference run serves all of them
        let Some(expected) = tally.ok(reference_checksum(&slx, &programs[0].2, iters)) else {
            continue;
        };
        for (v, code, program) in programs {
            let opts = v.options().keyed.emit;
            let harness = emit_c_harness_with(&program, iters as usize, opts);
            let stem = format!("{}_{}", bench.name, v.label());
            if !tally.check(harness.starts_with(&code), || {
                format!("{stem}: harness does not embed the compiled C")
            }) {
                continue;
            }
            let c_path = dir.join(format!("{stem}.c"));
            std::fs::write(&c_path, harness).map_err(|e| format!("{}: {e}", c_path.display()))?;
            pending.push(Harness {
                model: bench.name.to_string(),
                variant: v,
                bin: dir.join(stem),
                iters,
                expected,
                gcc_ms: 0.0,
            });
        }
    }
    setup.harnesses = gcc_all(&dir, pending, tally);
    Ok(setup)
}

/// Builds every harness with two concurrent `gcc` processes; a rejected
/// harness is counted as failed and dropped.
fn gcc_all(dir: &Path, pending: Vec<Harness>, tally: &mut Tally) -> Vec<Harness> {
    let queue = Mutex::new(pending.into_iter().enumerate().collect::<Vec<_>>());
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let Some((i, mut h)) = queue.lock().expect("no gcc worker panics").pop() else {
                    break;
                };
                let t = Instant::now();
                let out = Command::new("gcc")
                    .args(GCC_FLAGS)
                    .arg("-o")
                    .arg(&h.bin)
                    .arg(h.bin.with_extension("c"))
                    .arg("-lm")
                    .env("TMPDIR", dir)
                    .output();
                h.gcc_ms = t.elapsed().as_secs_f64() * 1e3;
                let result = match out {
                    Ok(o) if o.status.success() => Ok(h),
                    Ok(o) => Err(format!(
                        "{}: gcc rejected the harness: {}",
                        h.bin.display(),
                        String::from_utf8_lossy(&o.stderr)
                    )),
                    Err(e) => Err(format!("{}: gcc: {e}", h.bin.display())),
                };
                done.lock().expect("no gcc worker panics").push((i, result));
            });
        }
    });
    let mut done = done.into_inner().expect("no gcc worker panics");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().filter_map(|(_, r)| tally.ok(r)).collect()
}

/// Runs one harness process: its checksum and ns per step.
fn run_once(h: &Harness) -> Result<(f64, f64), String> {
    let out = Command::new(&h.bin)
        .output()
        .map_err(|e| format!("{}: {e}", h.bin.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut parts = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), parts.next(), parts.next()) {
        (true, Some(Ok(checksum)), Some(Ok(ns))) => Ok((checksum, ns)),
        _ => Err(format!(
            "{}: exit {:?}, output {text:?}",
            h.bin.display(),
            out.status.code()
        )),
    }
}

/// Runs rounds of every harness, one process each, until `budget` has
/// passed and at least `min_rounds` rounds are done. Within a round the
/// variants of each model run back to back, starting at a different one
/// each round. Returns ns-per-step samples, one vector per harness.
pub fn run_rounds(
    setup: &NativeSetup,
    budget: Duration,
    min_rounds: usize,
    tally: &mut Tally,
) -> Vec<Vec<f64>> {
    let mut samples = vec![Vec::new(); setup.harnesses.len()];
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, h) in setup.harnesses.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if setup.harnesses[g[0]].model == h.model => g.push(i),
            _ => groups.push(vec![i]),
        }
    }
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed() < budget {
        for g in &groups {
            for k in 0..g.len() {
                let i = g[(k + round) % g.len()];
                let h = &setup.harnesses[i];
                let Some((checksum, ns)) = tally.ok(run_once(h)) else {
                    continue;
                };
                if tally.check(checksum_matches(checksum, h.expected), || {
                    format!(
                        "{}/{}: native checksum {checksum:e} vs reference {:e}",
                        h.model,
                        h.variant.label(),
                        h.expected
                    )
                }) {
                    samples[i].push(ns);
                }
            }
        }
        round += 1;
    }
    samples
}

/// Per-model ns/step of `variant` (the [`stats::floor`] of its
/// processes), in model order.
pub fn floor_of(setup: &NativeSetup, samples: &[Vec<f64>], variant: Variant) -> Vec<(String, f64)> {
    setup
        .harnesses
        .iter()
        .zip(samples)
        .filter(|(h, _)| h.variant == variant)
        .filter_map(|(h, s)| stats::floor(s).map(|m| (h.model.clone(), m)))
        .collect()
}

/// Geometric mean over models of `num` ns / `den` ns ([`floor_of`]);
/// `None` unless every model has both.
pub fn ratio_geomean(
    setup: &NativeSetup,
    samples: &[Vec<f64>],
    num: Variant,
    den: Variant,
) -> Option<f64> {
    let n = floor_of(setup, samples, num);
    let d = floor_of(setup, samples, den);
    let ratios: Vec<f64> = n
        .iter()
        .filter_map(|(m, a)| d.iter().find(|(k, _)| k == m).map(|(_, b)| a / b))
        .collect();
    (ratios.len() == frodo_benchmodels::all().len())
        .then(|| stats::geomean(&ratios))
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_matches_the_harness_constants() {
        // first value of the C harness's fill: lcg = seed * a + c
        let lcg: u64 = 0x243F_6A88_85A3_08D3u64
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let first = (lcg >> 40) as f64 / 16_777_216.0 - 0.5;
        let bench = frodo_benchmodels::all().remove(0);
        let analysis = frodo_core::Analysis::run(bench.model).unwrap();
        let program = frodo_codegen::generate(&analysis, GeneratorStyle::Frodo, &Trace::noop());
        let inputs = lcg_inputs(&program);
        assert_eq!(inputs[0].1[0], first);
        assert!(inputs
            .iter()
            .flat_map(|(_, v)| v)
            .all(|x| (-0.5..0.5).contains(x)));
    }

    #[test]
    fn checksum_tolerance_is_relative_above_one() {
        assert!(checksum_matches(1e6 + 1e-4, 1e6));
        assert!(!checksum_matches(1e6 + 1.0, 1e6));
        assert!(checksum_matches(1e-12, 0.0));
        assert!(!checksum_matches(1e-6, 0.0));
    }
}
