//! Format roundtrips over the whole benchmark suite: every Table-1 model
//! must survive `.slx` (ZIP+XML) and `.mdl` (text) serialization exactly,
//! and the re-read model must analyze to identical calculation ranges.

use frodo::prelude::*;
use frodo::slx::{read_mdl, read_slx, write_mdl, write_slx};

#[test]
fn all_benchmarks_roundtrip_through_slx() {
    for bench in frodo::benchmodels::all() {
        let bytes = write_slx(&bench.model).expect("serialize");
        let back = read_slx(&bytes, &frodo_obs::Trace::noop())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(
            back, bench.model,
            "{} differs after .slx roundtrip",
            bench.name
        );
    }
}

#[test]
fn all_benchmarks_roundtrip_through_mdl() {
    for bench in frodo::benchmodels::all() {
        let text = write_mdl(&bench.model);
        let back = read_mdl(&text, &frodo_obs::Trace::noop())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(
            back, bench.model,
            "{} differs after .mdl roundtrip",
            bench.name
        );
    }
}

#[test]
fn slx_reread_models_produce_identical_analyses() {
    // the paper's pipeline starts from .slx bytes; ranges derived from the
    // re-parsed model must match ranges from the in-memory original
    for bench in frodo::benchmodels::all() {
        let original = Analysis::run(bench.model.clone()).expect("analyze original");
        let reread = read_slx(
            &write_slx(&bench.model).expect("serialize"),
            &frodo_obs::Trace::noop(),
        )
        .expect("reparse");
        let reparsed = Analysis::run(reread).expect("analyze reparsed");
        assert_eq!(
            original.ranges(),
            reparsed.ranges(),
            "{}: ranges differ after container roundtrip",
            bench.name
        );
    }
}

#[test]
fn slx_and_mdl_agree_with_each_other() {
    for bench in frodo::benchmodels::all() {
        let via_slx = read_slx(
            &write_slx(&bench.model).expect("slx"),
            &frodo_obs::Trace::noop(),
        )
        .expect("slx back");
        let via_mdl =
            read_mdl(&write_mdl(&bench.model), &frodo_obs::Trace::noop()).expect("mdl back");
        assert_eq!(via_slx, via_mdl, "{}: formats disagree", bench.name);
    }
}

#[test]
fn generated_code_is_stable_across_container_roundtrip() {
    // C text generated from the re-read model is byte-identical
    let bench = frodo::benchmodels::manufacture();
    let original = Analysis::run(bench.clone()).expect("analyze");
    let reread =
        read_slx(&write_slx(&bench).expect("slx"), &frodo_obs::Trace::noop()).expect("back");
    let reparsed = Analysis::run(reread).expect("analyze");
    for style in GeneratorStyle::ALL {
        let a = emit_c(&generate(&original, style, &frodo_obs::Trace::noop()));
        let b = emit_c(&generate(&reparsed, style, &frodo_obs::Trace::noop()));
        assert_eq!(a, b, "style {style}");
    }
}

#[test]
fn corrupted_slx_files_fail_cleanly_or_read_back_identically() {
    // every prefix truncation and every single-byte flip of every Table-1
    // `.slx`: an error, or exactly the original model — never a panic
    let benches = frodo::benchmodels::all();
    std::thread::scope(|s| {
        for bench in &benches {
            s.spawn(move || {
                let bytes = write_slx(&bench.model).unwrap();
                let noop = frodo_obs::Trace::noop();
                for cut in 0..bytes.len() {
                    if let Ok(m) = read_slx(&bytes[..cut], &noop) {
                        assert_eq!(m, bench.model, "{}: prefix of {cut} bytes", bench.name);
                    }
                }
                let mut flipped = bytes.clone();
                for at in 0..bytes.len() {
                    flipped[at] ^= 0xFF;
                    if let Ok(m) = read_slx(&flipped, &noop) {
                        assert_eq!(m, bench.model, "{}: byte {at} flipped", bench.name);
                    }
                    flipped[at] ^= 0xFF;
                }
            });
        }
    });
}
