//! End-to-end native validation: the emitted C, compiled with the real
//! `gcc -O3` and executed, must agree with the VM running the same program
//! on the same deterministic workload (the LCG built into the harness).
//!
//! Skipped silently when no C compiler is on the host.

use frodo::prelude::*;
use frodo_sim::native;

/// Reproduces the C harness's LCG input fill in Rust.
fn lcg_inputs(program: &frodo::codegen::lir::Program) -> Vec<Vec<f64>> {
    let mut lcg: u64 = 0x243F_6A88_85A3_08D3;
    program
        .inputs()
        .iter()
        .map(|&(_, id)| {
            let len = program.buffer(id).len;
            (0..len)
                .map(|_| {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (lcg >> 40) as f64 / 16777216.0 - 0.5
                })
                .collect()
        })
        .collect()
}

#[test]
fn native_gcc_matches_vm_on_manufacture() {
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    let analysis = Analysis::run(frodo::benchmodels::manufacture()).expect("analyze");
    for style in GeneratorStyle::ALL {
        let program = generate(&analysis, style, &frodo_obs::Trace::noop());
        // VM checksum after 3 iterations of the same workload
        let inputs = lcg_inputs(&program);
        let mut vm = Vm::new(&program);
        let mut outs = Vec::new();
        for _ in 0..3 {
            outs = vm.step(&program, &inputs);
        }
        let vm_checksum: f64 = outs.iter().flatten().sum();
        // native checksum with the identical harness protocol
        let native =
            native::compile_and_run(&program, style, 3).unwrap_or_else(|e| panic!("{style}: {e}"));
        let diff = (native.checksum - vm_checksum).abs();
        let scale = vm_checksum.abs().max(1.0);
        assert!(
            diff / scale < 1e-9,
            "{style}: native checksum {} vs VM {}",
            native.checksum,
            vm_checksum
        );
    }
}

/// The vectorization modes reshape loops and the window-reuse pass
/// reorders window summation, but neither may change what the program
/// computes: every variant's native checksum must agree with the scalar
/// FRODO emission on the same workload.
#[test]
fn native_gcc_vector_modes_and_window_reuse_match_scalar() {
    use frodo::codegen::{optimize, CEmitOptions, VectorMode};
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    let analysis = Analysis::run(frodo::benchmodels::manufacture()).expect("analyze");
    let program = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
    let scalar = native::compile_and_run_with(
        &program,
        GeneratorStyle::Frodo,
        3,
        CEmitOptions {
            vectorize: VectorMode::Off,
            ..Default::default()
        },
    )
    .expect("scalar emission runs");
    let close = |checksum: f64, what: &str| {
        let scale = scalar.checksum.abs().max(1.0);
        assert!(
            (checksum - scalar.checksum).abs() / scale < 1e-9,
            "{what}: native checksum {checksum} vs scalar {}",
            scalar.checksum
        );
    };
    for mode in [
        VectorMode::Hints,
        VectorMode::Batch(8),
        VectorMode::Batch(2),
    ] {
        let r = native::compile_and_run_with(
            &program,
            GeneratorStyle::Frodo,
            3,
            CEmitOptions {
                vectorize: mode,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        close(r.checksum, &format!("{mode:?}"));
    }
    let reused = optimize::window_reuse(&program);
    assert_ne!(
        reused.stmts, program.stmts,
        "manufacture should have a uniform-kernel window to rewrite"
    );
    let r = native::compile_and_run(&reused, GeneratorStyle::Frodo, 3)
        .expect("window-reuse emission runs");
    close(r.checksum, "window_reuse");
}

#[test]
fn native_gcc_all_styles_agree_on_every_small_model() {
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    // the three fastest-to-compile models keep this test snappy
    for model in [
        frodo::benchmodels::back(),
        frodo::benchmodels::hermitian_transpose(),
        frodo::benchmodels::simpson(),
    ] {
        let name = model.name().to_string();
        let analysis = Analysis::run(model).expect("analyze");
        let mut checksums = Vec::new();
        for style in GeneratorStyle::ALL {
            let program = generate(&analysis, style, &frodo_obs::Trace::noop());
            let r = native::compile_and_run(&program, style, 2)
                .unwrap_or_else(|e| panic!("{name}/{style}: {e}"));
            checksums.push(r.checksum);
        }
        for w in checksums.windows(2) {
            let scale = w[0].abs().max(1.0);
            assert!(
                (w[0] - w[1]).abs() / scale < 1e-9,
                "{name}: checksum divergence across styles: {checksums:?}"
            );
        }
    }
}

/// One window kernel between an input of `len` samples and a Selector of
/// its output run `[start, end)`; a convolution's kernel is `conv_kernel`.
fn window_model(
    kernel: BlockKind,
    len: usize,
    conv_kernel: &[f64],
    start: usize,
    end: usize,
) -> Model {
    let mut m = Model::new("win");
    let i = m.add(Block::new(
        "in",
        BlockKind::Inport {
            index: 0,
            shape: frodo::ranges::Shape::Vector(len),
        },
    ));
    let w = m.add(Block::new("w", kernel.clone()));
    let s = m.add(Block::new(
        "sel",
        BlockKind::Selector {
            mode: SelectorMode::StartEnd { start, end },
        },
    ));
    let o = m.add(Block::new("out", BlockKind::Outport { index: 0 }));
    m.connect(i, 0, w, 0).unwrap();
    if kernel == BlockKind::Convolution {
        let k = m.add(Block::new(
            "k",
            BlockKind::Constant {
                value: Tensor::vector(conv_kernel.to_vec()),
            },
        ));
        m.connect(k, 0, w, 1).unwrap();
    }
    m.connect(w, 0, s, 0).unwrap();
    m.connect(s, 0, o, 0).unwrap();
    m
}

/// FRODO splits each convolution, FIR and moving-average run into a
/// clamped head, a constant-bound interior and a clamped tail. Over a grid
/// of runs that produce every combination, the native FRODO result must
/// match the reference simulator, and bit for bit the unsplit DFSynth-style
/// C, which accumulates every element in the same order.
#[test]
fn native_gcc_split_window_runs_match_the_reference() {
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    let fir = |taps: usize| BlockKind::FirFilter {
        coeffs: (0..taps).map(|t| 0.75 - 0.3 * t as f64).collect(),
    };
    let avg = |window| BlockKind::MovingAverage { window };
    let kernel5 = [0.5, -0.25, 1.0, 0.125, 2.0];
    let kernel7 = [0.3, 1.5, -0.7, 0.25, 0.9, -1.25, 0.6];
    // (block, input length, conv kernel, run, window loops in the FRODO C)
    type Case<'a> = (BlockKind, usize, &'a [f64], (usize, usize), usize);
    let grid: Vec<Case> = vec![
        // conv 12 x 5: interior outputs [4, 12)
        (BlockKind::Convolution, 12, &kernel5, (0, 3), 1), // head only
        (BlockKind::Convolution, 12, &kernel5, (5, 10), 1), // interior only
        (BlockKind::Convolution, 12, &kernel5, (13, 16), 1), // tail only
        (BlockKind::Convolution, 12, &kernel5, (2, 14), 3), // all three
        (BlockKind::Convolution, 12, &kernel5, (0, 16), 3), // k0 = 0, k1 = u + v - 1
        (BlockKind::Convolution, 12, &kernel5, (7, 8), 0), // one element
        (BlockKind::Convolution, 3, &kernel7, (1, 8), 1),  // kernel longer than input
        // FIR, 12 samples x 4 taps: interior outputs [3, 12)
        (fir(4), 12, &[], (0, 2), 1),
        (fir(4), 12, &[], (5, 10), 1),
        (fir(4), 12, &[], (1, 9), 2),
        (fir(4), 12, &[], (0, 12), 2),
        (fir(15), 12, &[], (2, 10), 1),
        // moving average, 12 samples, window 5: interior outputs [4, 12)
        (avg(5), 12, &[], (0, 3), 1),
        (avg(5), 12, &[], (6, 11), 1),
        (avg(5), 12, &[], (2, 12), 2),
        (avg(20), 12, &[], (0, 12), 1),
    ];
    for (kernel, len, conv_kernel, (start, end), loops) in grid {
        let case = format!("{kernel:?} len {len} run [{start}, {end})");
        let analysis = Analysis::run(window_model(kernel, len, conv_kernel, start, end))
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let frodo = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
        let c = frodo::codegen::emit_c(&frodo);
        assert_eq!(c.matches("for (int k = ").count(), loops, "{case}:\n{c}");
        let inputs = lcg_inputs(&frodo);
        let expected: f64 = ReferenceSimulator::new(analysis.dfg().clone())
            .step(&[Tensor::vector(inputs[0].clone())])
            .expect("reference runs")
            .iter()
            .flat_map(|t| t.data().to_vec())
            .sum();
        let split = native::compile_and_run(&frodo, GeneratorStyle::Frodo, 1)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let scale = expected.abs().max(1.0);
        assert!(
            (split.checksum - expected).abs() / scale < 1e-9,
            "{case}: native {} vs reference {expected}",
            split.checksum
        );
        let dfsynth = generate(
            &analysis,
            GeneratorStyle::DfSynth,
            &frodo_obs::Trace::noop(),
        );
        let unsplit = native::compile_and_run(&dfsynth, GeneratorStyle::DfSynth, 1)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(
            split.checksum.to_bits(),
            unsplit.checksum.to_bits(),
            "{case}: split {} vs unsplit {}",
            split.checksum,
            unsplit.checksum
        );
    }
}

/// The emitted `frodo_fmax`/`frodo_fmin` helpers must agree bitwise with
/// the host libm's `fmax`/`fmin` on every pair of special values, in both
/// argument orders (any NaN counts as equal to any NaN).
#[test]
fn native_gcc_min_max_helpers_match_libm_bitwise() {
    if !native::gcc_available() {
        eprintln!("skipping: no gcc on host");
        return;
    }
    // the helpers exactly as the emitter writes them
    let analysis = Analysis::run(frodo::benchmodels::kalman()).expect("analyze");
    let program = generate(&analysis, GeneratorStyle::Frodo, &frodo_obs::Trace::noop());
    let emitted = frodo::codegen::emit_c(&program);
    let helpers: Vec<&str> = emitted
        .lines()
        .filter(|l| l.starts_with("static inline double frodo_f"))
        .collect();
    assert_eq!(
        helpers.len(),
        2,
        "Kalman saturates, so both helpers are emitted"
    );
    let probe = format!(
        "#include <float.h>\n#include <math.h>\n#include <stdio.h>\n#include <string.h>\n\
         {}\n\
         /* called through volatile pointers so gcc cannot fold them to builtins */\n\
         static double (*volatile libm_fmax)(double, double) = fmax;\n\
         static double (*volatile libm_fmin)(double, double) = fmin;\n\
         static int same(double x, double y) {{\n\
         \x20   if (x != x && y != y) return 1;\n\
         \x20   return memcmp(&x, &y, sizeof x) == 0;\n\
         }}\n\
         int main(void) {{\n\
         \x20   static volatile double v[12];\n\
         \x20   int bad = 0;\n\
         \x20   v[0] = 0.0; v[1] = -0.0; v[2] = 1.0; v[3] = -1.0;\n\
         \x20   v[4] = INFINITY; v[5] = -INFINITY; v[6] = NAN; v[7] = -NAN;\n\
         \x20   v[8] = DBL_TRUE_MIN; v[9] = -DBL_TRUE_MIN; v[10] = DBL_MAX; v[11] = -DBL_MAX;\n\
         \x20   for (int i = 0; i < 12; ++i) {{\n\
         \x20       for (int j = 0; j < 12; ++j) {{\n\
         \x20           double a = v[i], b = v[j];\n\
         \x20           if (!same(frodo_fmax(a, b), libm_fmax(a, b))) {{ printf(\"fmax %d %d\\n\", i, j); ++bad; }}\n\
         \x20           if (!same(frodo_fmin(a, b), libm_fmin(a, b))) {{ printf(\"fmin %d %d\\n\", i, j); ++bad; }}\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   printf(\"%d mismatches\\n\", bad);\n\
         \x20   return bad != 0;\n\
         }}\n",
        helpers.join("\n")
    );
    let dir = std::env::temp_dir().join(format!("frodo-minmax-probe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (src, bin) = (dir.join("probe.c"), dir.join("probe"));
    std::fs::write(&src, probe).unwrap();
    let built = std::process::Command::new("gcc")
        .args(["-O3", "-march=native", "-o"])
        .arg(&bin)
        .arg(&src)
        .arg("-lm")
        .output()
        .expect("gcc runs");
    assert!(
        built.status.success(),
        "probe does not compile: {}",
        String::from_utf8_lossy(&built.stderr)
    );
    let run = std::process::Command::new(&bin)
        .output()
        .expect("probe runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "helpers disagree with libm:\n{stdout}"
    );
    assert!(stdout.contains("0 mismatches"), "{stdout}");
}
