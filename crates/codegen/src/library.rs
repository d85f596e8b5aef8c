//! The **element-level code library**: C snippet templates with
//! `$placeholder$` substitution, mirroring the paper's Figure 4.
//!
//! Each complex block has a *single-element* snippet (①) and a
//! *consecutive-elements* snippet (②); FRODO picks per run of the derived
//! calculation range and substitutes the placeholders (e.g.
//! `$Input2_size$`) with the block's actual parameters. The C emitter
//! ([`crate::emit_c`]) renders every complex-block statement through these
//! templates.
//!
//! The window kernels (convolution, FIR, moving average) come in two
//! consecutive-elements forms. The clamped snippet (`CONV_RUN`, `FIR_RUN`,
//! `MOVAVG_RUN`) bounds the inner window to the operands on every element;
//! the `*_INTERIOR` snippet covers the elements whose window lies wholly
//! inside the operands, with constant inner bounds and no clamp. FRODO
//! splits each run into a clamped head, an interior and a clamped tail;
//! both forms accumulate in the same order, so the split is bit-exact.

use std::fmt;

/// A C code template with `$name$` placeholders.
///
/// # Example
///
/// ```
/// use frodo_codegen::library::CodeTemplate;
///
/// let t = CodeTemplate::new("$dst$[$k$] = $src$[$k$] * 2.0;");
/// let code = t.render(&[("dst", "y".into()), ("k", "3".into()), ("src", "x".into())]).unwrap();
/// assert_eq!(code, "y[3] = x[3] * 2.0;");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeTemplate {
    text: &'static str,
}

/// A placeholder left unresolved after rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderError {
    /// The placeholder that had no substitution.
    pub placeholder: String,
}

impl fmt::Display for RenderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unresolved placeholder ${}$", self.placeholder)
    }
}

impl std::error::Error for RenderError {}

impl CodeTemplate {
    /// Wraps a template string.
    pub const fn new(text: &'static str) -> Self {
        CodeTemplate { text }
    }

    /// The raw template text.
    pub fn text(&self) -> &'static str {
        self.text
    }

    /// Substitutes every `$key$` with its value.
    ///
    /// # Errors
    ///
    /// Returns [`RenderError`] if a placeholder remains unsubstituted —
    /// a template/parameter mismatch in the block library.
    pub fn render(&self, subs: &[(&str, String)]) -> Result<String, RenderError> {
        render_text(self.text, subs)
    }
}

/// [`CodeTemplate::render`] over template text built at run time (the
/// width-parameterized snippets from [`conv_batched_template`]).
///
/// One left-to-right scan: literal text is copied through and each
/// `$key$` is replaced by the first substitution named `key`.
///
/// # Errors
///
/// Returns [`RenderError`] naming the first placeholder (in template
/// order) that has no substitution.
pub fn render_text(text: &str, subs: &[(&str, String)]) -> Result<String, RenderError> {
    let mut out = String::with_capacity(text.len() + 64);
    let mut rest = text;
    while let Some(start) = rest.find('$') {
        out.push_str(&rest[..start]);
        let after = &rest[start + 1..];
        let end = after.find('$').unwrap_or(after.len());
        let key = &after[..end];
        match subs.iter().find(|(k, _)| *k == key) {
            Some((_, value)) if end < after.len() => out.push_str(value),
            _ => {
                return Err(RenderError {
                    placeholder: key.to_string(),
                })
            }
        }
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Pairwise-reduction expression over `acc0 .. acc{width-1}` — the
/// accumulator merge of a batched dot product (`(acc0 + acc1) + (acc2 +
/// acc3)` at width 4). Pairing keeps the reduction tree balanced, which is
/// what lets the compiler map it onto horizontal vector adds.
fn pairwise_sum(lo: usize, len: usize) -> String {
    if len == 1 {
        return format!("acc{lo}");
    }
    let half = len / 2;
    let wrap = |s: String, l: usize| if l > 1 { format!("({s})") } else { s };
    format!(
        "{} + {}",
        wrap(pairwise_sum(lo, half), half),
        wrap(pairwise_sum(lo + half, len - half), len - half)
    )
}

/// Builds the consecutive-elements convolution snippet with an explicit
/// `width`-lane batched inner dot product, tagged with the generator's
/// lowercase label. `conv_batched_template(4, "hcg")` reproduces
/// [`CONV_RUN_HCG`] byte-for-byte; other widths generalize the same
/// structure to the target's SIMD lane count.
///
/// # Panics
///
/// Panics if `width < 2` — a one-lane batch is just [`CONV_RUN`].
pub fn conv_batched_template(width: usize, tag: &str) -> String {
    assert!(width >= 2, "batched conv needs at least two lanes");
    let mut t = String::new();
    t.push_str(&format!(
        "/* {tag}: explicit simd batch (width {width}) */\n"
    ));
    t.push_str("for (int k = $k0$; k < $k1$; ++k) {\n");
    t.push_str("    int lo = k >= $Input2_size$ ? k - ($Input2_size$ - 1) : 0;\n");
    t.push_str("    int hi = k < $Input1_size$ - 1 ? k : $Input1_size$ - 1;\n");
    let decls: Vec<String> = (0..width).map(|l| format!("acc{l} = 0.0")).collect();
    t.push_str(&format!("    double {};\n", decls.join(", ")));
    t.push_str("    int j = lo;\n");
    t.push_str(&format!(
        "    for (; j + {} <= hi; j += {width}) {{\n",
        width - 1
    ));
    for l in 0..width {
        if l == 0 {
            t.push_str("        acc0 += $Input1$[j] * $Input2$[k - j];\n");
        } else {
            t.push_str(&format!(
                "        acc{l} += $Input1$[j + {l}] * $Input2$[k - j - {l}];\n"
            ));
        }
    }
    t.push_str("    }\n");
    t.push_str(&format!("    double acc = {};\n", pairwise_sum(0, width)));
    t.push_str("    for (; j <= hi; ++j) {\n");
    t.push_str("        acc += $Input1$[j] * $Input2$[k - j];\n");
    t.push_str("    }\n");
    t.push_str("    $Output$[k] = acc;\n");
    t.push('}');
    t
}

/// Convolution, consecutive-elements snippet (paper Figure 4 ②): exact
/// outer bounds, with the inner window clamped to the operands per
/// element. FRODO renders it only for the head and tail of a run, where
/// the window crosses an operand edge; [`CONV_RUN_INTERIOR`] covers the
/// rest.
pub const CONV_RUN: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   int lo = k >= $Input2_size$ ? k - ($Input2_size$ - 1) : 0;\n\
     \x20   int hi = k < $Input1_size$ - 1 ? k : $Input1_size$ - 1;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = lo; j <= hi; ++j) {\n\
     \x20       acc += $Input1$[j] * $Input2$[k - j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Convolution, interior consecutive-elements snippet: for `$k0$ ≥
/// $Input2_size$ − 1` and `$k1$ ≤ $Input1_size$` the whole kernel overlaps
/// the input, so the inner loop has a constant trip count and no clamp.
/// It accumulates `j` in the same ascending order as [`CONV_RUN`], so both
/// produce bit-identical results.
pub const CONV_RUN_INTERIOR: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = k - ($Input2_size$ - 1); j <= k; ++j) {\n\
     \x20       acc += $Input1$[j] * $Input2$[k - j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Convolution, single-element snippet (paper Figure 4 ①).
pub const CONV_SINGLE: CodeTemplate = CodeTemplate::new(
    "{\n\
     \x20   int k = $k$;\n\
     \x20   int lo = k >= $Input2_size$ ? k - ($Input2_size$ - 1) : 0;\n\
     \x20   int hi = k < $Input1_size$ - 1 ? k : $Input1_size$ - 1;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = lo; j <= hi; ++j) {\n\
     \x20       acc += $Input1$[j] * $Input2$[k - j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Convolution, full-padding loop with per-element *boundary judgments* —
/// the style the paper observes in Simulink Embedded Coder output
/// (Figure 1, green).
pub const CONV_BRANCHY: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = $Input2_size$ - 1; j >= 0; --j) {\n\
     \x20       if (k - j >= 0 && k - j < $Input1_size$) {\n\
     \x20           acc += $Input2$[j] * $Input1$[k - j];\n\
     \x20       }\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Convolution with HCG-style explicit SIMD batching: the inner dot product
/// is hand-batched four lanes wide (the structural equivalent of the
/// `_mm256_fmadd_pd` synthesis the paper analyzes).
pub const CONV_RUN_HCG: CodeTemplate = CodeTemplate::new(
    "/* hcg: explicit simd batch (width 4) */\n\
     for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   int lo = k >= $Input2_size$ ? k - ($Input2_size$ - 1) : 0;\n\
     \x20   int hi = k < $Input1_size$ - 1 ? k : $Input1_size$ - 1;\n\
     \x20   double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;\n\
     \x20   int j = lo;\n\
     \x20   for (; j + 3 <= hi; j += 4) {\n\
     \x20       acc0 += $Input1$[j] * $Input2$[k - j];\n\
     \x20       acc1 += $Input1$[j + 1] * $Input2$[k - j - 1];\n\
     \x20       acc2 += $Input1$[j + 2] * $Input2$[k - j - 2];\n\
     \x20       acc3 += $Input1$[j + 3] * $Input2$[k - j - 3];\n\
     \x20   }\n\
     \x20   double acc = (acc0 + acc1) + (acc2 + acc3);\n\
     \x20   for (; j <= hi; ++j) {\n\
     \x20       acc += $Input1$[j] * $Input2$[k - j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Sliding-window sum with a rolling accumulator and a persistent
/// ring-buffer handoff (the `window_reuse` pass): the seed element `k0` is
/// summed once, every later element reuses the retained overlap by one
/// delta add and one delta subtract, and the final window tail is stored
/// into `$State$` for the next invocation. `$AccOut$` is the scaling
/// expression over `acc` (`acc / (double)W` for a moving average, `acc *
/// c` for a uniform kernel).
pub const WINDOW_REUSE_RUN: CodeTemplate = CodeTemplate::new(
    "/* window_reuse: rolling window sum (window $Window$) */\n\
     {\n\
     \x20   int lo = $k0$ + 1 >= $Window$ ? $k0$ + 1 - $Window$ : 0;\n\
     \x20   int hi = $k0$ < $SrcLen$ - 1 ? $k0$ : $SrcLen$ - 1;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = lo; j <= hi; ++j) {\n\
     \x20       acc += $Input$[j];\n\
     \x20   }\n\
     \x20   $Output$[$k0$] = $AccOut$;\n\
     \x20   for (int k = $k0$ + 1; k < $k1$; ++k) {\n\
     \x20       if (k <= $SrcLen$ - 1) {\n\
     \x20           acc += $Input$[k];\n\
     \x20       }\n\
     \x20       if (k >= $Window$) {\n\
     \x20           acc -= $Input$[k - $Window$];\n\
     \x20       }\n\
     \x20       $Output$[k] = $AccOut$;\n\
     \x20   }\n\
     \x20   for (int t = 0; t < $Window$; ++t) {\n\
     \x20       int j = $k1$ - $Window$ + t;\n\
     \x20       $State$[t] = (j >= 0 && j < $SrcLen$) ? $Input$[j] : 0.0;\n\
     \x20   }\n\
     }",
);

/// FIR filter, consecutive-elements snippet, with the tap count clamped
/// per element for the first `$Taps$ − 1` outputs.
pub const FIR_RUN: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   int tmax = k < $Taps$ - 1 ? k : $Taps$ - 1;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int t = 0; t <= tmax; ++t) {\n\
     \x20       acc += $Coeffs$[t] * $Input$[k - t];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// FIR filter, interior snippet: for `$k0$ ≥ $Taps$ − 1` every output
/// uses all taps, in the same order as [`FIR_RUN`].
pub const FIR_RUN_INTERIOR: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int t = 0; t < $Taps$; ++t) {\n\
     \x20       acc += $Coeffs$[t] * $Input$[k - t];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc;\n\
     }",
);

/// Trailing moving average, consecutive-elements snippet, with the window
/// clamped at the input start per element.
pub const MOVAVG_RUN: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   int lo = k >= $Window$ - 1 ? k - ($Window$ - 1) : 0;\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = lo; j <= k; ++j) {\n\
     \x20       acc += $Input$[j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc / (double)$Window$;\n\
     }",
);

/// Trailing moving average, interior snippet: for `$k0$ ≥ $Window$ − 1`
/// every window is full, summed in the same order as [`MOVAVG_RUN`].
pub const MOVAVG_RUN_INTERIOR: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int j = k - ($Window$ - 1); j <= k; ++j) {\n\
     \x20       acc += $Input$[j];\n\
     \x20   }\n\
     \x20   $Output$[k] = acc / (double)$Window$;\n\
     }",
);

/// Matrix multiply, row-range snippet.
pub const MATMUL_RUN: CodeTemplate = CodeTemplate::new(
    "for (int r = $r0$; r < $r1$; ++r) {\n\
     \x20   for (int c = 0; c < $N$; ++c) {\n\
     \x20       double acc = 0.0;\n\
     \x20       for (int t = 0; t < $K$; ++t) {\n\
     \x20           acc += $A$[r * $K$ + t] * $B$[t * $N$ + c];\n\
     \x20       }\n\
     \x20       $Output$[r * $N$ + c] = acc;\n\
     \x20   }\n\
     }",
);

/// Cumulative sum prefix snippet.
pub const CUMSUM_RUN: CodeTemplate = CodeTemplate::new(
    "{\n\
     \x20   double acc = 0.0;\n\
     \x20   for (int k = 0; k < $k_end$; ++k) {\n\
     \x20       acc += $Input$[k];\n\
     \x20       $Output$[k] = acc;\n\
     \x20   }\n\
     }",
);

/// First-difference run snippet (the `k0 == 0` head element is emitted
/// separately by the emitter).
pub const DIFF_RUN: CodeTemplate = CodeTemplate::new(
    "for (int k = $k0$; k < $k1$; ++k) {\n\
     \x20   $Output$[k] = $Input$[k] - $Input$[k - 1];\n\
     }",
);

#[cfg(test)]
mod tests {
    use super::*;

    /// The multi-pass renderer [`render_text`] replaced: one
    /// `String::replace` per substitution, then a scan for leftovers.
    fn render_text_oracle(text: &str, subs: &[(&str, String)]) -> Result<String, RenderError> {
        let mut out = text.to_string();
        for (key, value) in subs {
            out = out.replace(&format!("${key}$"), value);
        }
        if let Some(start) = out.find('$') {
            let rest = &out[start + 1..];
            let end = rest.find('$').unwrap_or(rest.len());
            return Err(RenderError {
                placeholder: rest[..end].to_string(),
            });
        }
        Ok(out)
    }

    const ALL_TEMPLATES: [CodeTemplate; 13] = [
        CONV_RUN,
        CONV_RUN_INTERIOR,
        CONV_SINGLE,
        CONV_BRANCHY,
        CONV_RUN_HCG,
        WINDOW_REUSE_RUN,
        FIR_RUN,
        FIR_RUN_INTERIOR,
        MOVAVG_RUN,
        MOVAVG_RUN_INTERIOR,
        MATMUL_RUN,
        CUMSUM_RUN,
        DIFF_RUN,
    ];

    /// A value for every placeholder any library template uses.
    fn all_subs() -> Vec<(&'static str, String)> {
        [
            ("k0", "5"),
            ("k1", "55"),
            ("k", "7"),
            ("k_end", "40"),
            ("r0", "1"),
            ("r1", "3"),
            ("N", "4"),
            ("K", "6"),
            ("A", "g_a"),
            ("B", "g_b"),
            ("Input", "in0"),
            ("Input1", "in1"),
            ("Input1_size", "50"),
            ("Input2", "g_k"),
            ("Input2_size", "11"),
            ("Output", "out0"),
            ("Window", "9"),
            ("SrcLen", "50"),
            ("State", "g_win"),
            ("AccOut", "acc / 9.0"),
            ("Taps", "5"),
            ("Coeffs", "g_c"),
        ]
        .into_iter()
        .map(|(k, v)| (k, v.to_string()))
        .collect()
    }

    #[test]
    fn one_pass_renderer_matches_the_multi_pass_oracle() {
        let texts: Vec<String> = ALL_TEMPLATES
            .iter()
            .map(|t| t.text().to_string())
            .chain((2..=16).map(|w| conv_batched_template(w, "frodo")))
            .collect();
        let subs = all_subs();
        for text in &texts {
            let rendered = render_text(text, &subs);
            assert_eq!(rendered, render_text_oracle(text, &subs), "{text}");
            assert!(!rendered.unwrap().contains('$'));
            // dropping any one substitution the text uses fails identically
            for skip in 0..subs.len() {
                let partial: Vec<(&str, String)> = subs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, s)| s.clone())
                    .collect();
                assert_eq!(
                    render_text(text, &partial),
                    render_text_oracle(text, &partial),
                    "{text} without ${}$",
                    subs[skip].0
                );
            }
        }
        // unterminated and empty placeholders report like the oracle
        for text in ["a $k0", "a $$ b", "$", "x[$k$]$k"] {
            let subs = [("k0", "1".to_string()), ("k", "2".to_string())];
            assert_eq!(
                render_text(text, &subs),
                render_text_oracle(text, &subs),
                "{text}"
            );
        }
    }

    #[test]
    fn render_replaces_all_placeholders() {
        let code = CONV_RUN
            .render(&[
                ("k0", "5".into()),
                ("k1", "55".into()),
                ("Input1", "g_in".into()),
                ("Input1_size", "50".into()),
                ("Input2", "g_k".into()),
                ("Input2_size", "11".into()),
                ("Output", "g_conv".into()),
            ])
            .unwrap();
        assert!(code.contains("for (int k = 5; k < 55; ++k)"));
        assert!(code.contains("g_in[j] * g_k[k - j]"));
        assert!(!code.contains('$'));
    }

    #[test]
    fn render_reports_missing_placeholder() {
        let err = CONV_RUN.render(&[("k0", "0".into())]).unwrap_err();
        assert_eq!(err.placeholder, "k1");
        assert!(err.to_string().contains("$k1$"));
    }

    #[test]
    fn branchy_template_contains_boundary_judgment() {
        assert!(CONV_BRANCHY.text().contains("if (k - j >= 0"));
        assert!(!CONV_RUN.text().contains("if (k - j"));
    }

    #[test]
    fn conv_batched_width_4_reproduces_the_hcg_snippet() {
        assert_eq!(conv_batched_template(4, "hcg"), CONV_RUN_HCG.text());
    }

    #[test]
    fn conv_batched_scales_lanes_and_keeps_pairwise_merge() {
        let w8 = conv_batched_template(8, "frodo");
        assert!(w8.starts_with("/* frodo: explicit simd batch (width 8) */"));
        assert!(w8.contains("for (; j + 7 <= hi; j += 8)"));
        assert!(w8.contains("acc7 += $Input1$[j + 7] * $Input2$[k - j - 7];"));
        assert!(w8.contains("((acc0 + acc1) + (acc2 + acc3)) + ((acc4 + acc5) + (acc6 + acc7))"));
        let w2 = conv_batched_template(2, "frodo");
        assert!(w2.contains("double acc = acc0 + acc1;"));
    }

    #[test]
    fn window_reuse_snippet_renders_and_stores_state() {
        let code = WINDOW_REUSE_RUN
            .render(&[
                ("k0", "5".into()),
                ("k1", "55".into()),
                ("Window", "11".into()),
                ("SrcLen", "50".into()),
                ("Input", "in0".into()),
                ("Output", "g_conv".into()),
                ("State", "g_conv_win".into()),
                ("AccOut", "acc * 0.1".into()),
            ])
            .unwrap();
        assert!(code.contains("g_conv[5] = acc * 0.1;"));
        assert!(code.contains("acc -= in0[k - 11];"));
        assert!(code.contains("g_conv_win[t] = (j >= 0 && j < 50) ? in0[j] : 0.0;"));
        assert!(!code.contains('$'));
    }

    #[test]
    fn single_element_snippet_pins_one_index() {
        let code = CONV_SINGLE
            .render(&[
                ("k", "7".into()),
                ("Input1", "u".into()),
                ("Input1_size", "10".into()),
                ("Input2", "v".into()),
                ("Input2_size", "3".into()),
                ("Output", "y".into()),
            ])
            .unwrap();
        assert!(code.contains("int k = 7;"));
    }
}
