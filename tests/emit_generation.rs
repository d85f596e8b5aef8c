//! The emitted C is versioned by `frodo_codegen::EMIT_GENERATION`, which the
//! driver folds into its artifact cache keys. This test pins a fingerprint
//! of the 40 default Table-1 outputs to that generation: a change to the
//! emitted text fails here until the constant is bumped (so `--cache-dir`
//! never replays C from an older emitter) and the fingerprint re-pinned.

use frodo::codegen::{GeneratorStyle, EMIT_GENERATION};
use frodo::model::digest::Fnv128;
use frodo::prelude::*;

/// The generation the fingerprint below was taken at, and the FNV-1a-128
/// fingerprint of the 10 Table-1 models x 4 styles at default options.
const PINNED: (u32, u128) = (1, 0xcf6e376a206e46e04b49b185233d277e);

#[test]
fn emitted_text_is_pinned_to_the_emit_generation() {
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        no_cache: true,
        ..ServiceConfig::default()
    });
    let mut h = Fnv128::new();
    let mut jobs = 0;
    for bench in frodo::benchmodels::all() {
        for style in GeneratorStyle::ALL {
            let spec = JobSpec::from_model(bench.name, bench.model.clone(), style);
            let code = service.compile(spec).expect("suite compiles").code;
            for field in [
                bench.name.as_bytes(),
                style.label().as_bytes(),
                code.as_bytes(),
            ] {
                h.write_usize(field.len());
                h.write(field);
            }
            jobs += 1;
        }
    }
    assert_eq!(jobs, 40, "10 models x 4 styles");
    let fingerprint = h.finish();
    assert_eq!(
        (EMIT_GENERATION, fingerprint),
        PINNED,
        "the default emitted C changed (fingerprint {fingerprint:#034x}): bump \
         EMIT_GENERATION and re-pin both values here"
    );
}
