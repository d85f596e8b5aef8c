//! The benchmark's inputs: compile jobs as serialized `.slx` bytes, each
//! paired with a one-block edit of the same model.

use frodo_benchmodels::random::{random_model, random_model_edited};
use frodo_codegen::GeneratorStyle;
use frodo_model::{BlockId, BlockKind, Model};
use std::sync::Arc;

/// Blocks requested from the synthetic generator for the large model.
pub const SYNTH_SIZE: usize = 8000;
/// The smaller synthetic size the scaling exponents compare against.
pub const SYNTH_SMALL_SIZE: usize = 2000;

/// One compile job: a model as `.slx` bytes, the same model with one
/// `Gain` parameter changed, and the generator style to compile with.
#[derive(Debug, Clone)]
pub struct Job {
    /// `<model>/<style>`, the job name handed to the driver.
    pub name: String,
    /// Generator style.
    pub style: GeneratorStyle,
    /// The model serialized with `frodo_slx::write_slx`.
    pub slx: Arc<Vec<u8>>,
    /// The edited model serialized the same way.
    pub edited_slx: Arc<Vec<u8>>,
}

/// SplitMix64 over `seed ^ tag`: independent, reproducible sub-seeds.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z =
        (seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn slx(model: &Model) -> Result<Arc<Vec<u8>>, String> {
    frodo_slx::write_slx(model)
        .map(Arc::new)
        .map_err(|e| format!("{}: write_slx: {e}", model.name()))
}

/// The paper's ten Table-1 models in each of the four generator styles
/// (40 jobs). The models are fixed; `seed` only picks which `Gain` each
/// edit perturbs.
///
/// # Errors
///
/// A model that cannot be serialized or has no `Gain` to edit.
pub fn table1_jobs(seed: u64) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for (i, bench) in frodo_benchmodels::all().into_iter().enumerate() {
        let edited = edit_one_gain(&bench.model, mix(seed, i as u64) as usize)
            .ok_or_else(|| format!("{}: no Gain block to edit", bench.name))?;
        let (original, edited) = (slx(&bench.model)?, slx(&edited)?);
        for style in GeneratorStyle::ALL {
            jobs.push(Job {
                name: format!("{}/{}", bench.name, style.label()),
                style,
                slx: Arc::clone(&original),
                edited_slx: Arc::clone(&edited),
            });
        }
    }
    Ok(jobs)
}

/// A synthetic model of `size` requested blocks from [`random_model`],
/// compiled in the FRODO style, with a `Gain` edited through
/// [`random_model_edited`]. `seed` picks the model and the edited `Gain`,
/// and the same generator seed at every size.
///
/// # Errors
///
/// A model that cannot be serialized.
pub fn synth_job(seed: u64, size: usize) -> Result<Job, String> {
    let s = mix(seed, 0x5EED);
    let edit = (mix(seed, 0xED17) % 1_000_003) as usize;
    Ok(Job {
        name: format!("random:{s}:{size}/Frodo"),
        style: GeneratorStyle::Frodo,
        slx: slx(&random_model(s, size))?,
        edited_slx: slx(&random_model_edited(s, size, edit))?,
    })
}

/// Paths (block ids from the top level down through subsystems) of every
/// `Gain` block, in block order.
fn gain_paths(model: &Model, prefix: &mut Vec<BlockId>, out: &mut Vec<Vec<BlockId>>) {
    for id in model.ids() {
        match &model.block(id).kind {
            BlockKind::Gain { .. } => {
                let mut path = prefix.clone();
                path.push(id);
                out.push(path);
            }
            BlockKind::Subsystem(sub) => {
                prefix.push(id);
                gain_paths(sub, prefix, out);
                prefix.pop();
            }
            _ => {}
        }
    }
}

fn perturb_gain(model: &mut Model, path: &[BlockId]) {
    match (&mut model.block_mut(path[0]).kind, path.len()) {
        (BlockKind::Gain { gain }, 1) => *gain = *gain * 1.5 + 0.25,
        (BlockKind::Subsystem(sub), _) => perturb_gain(sub, &path[1..]),
        _ => unreachable!("gain_paths only yields paths to Gain blocks"),
    }
}

/// `model` with its `k`-th `Gain` (wrapping, subsystems included)
/// perturbed the way [`random_model_edited`] perturbs synthetic models.
/// `None` when the model has no `Gain`.
pub fn edit_one_gain(model: &Model, k: usize) -> Option<Model> {
    let mut paths = Vec::new();
    gain_paths(model, &mut Vec::new(), &mut paths);
    if paths.is_empty() {
        return None;
    }
    let mut edited = model.clone();
    perturb_gain(&mut edited, &paths[k % paths.len()]);
    Some(edited)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table1_model_has_an_editable_gain() {
        for bench in frodo_benchmodels::all() {
            for k in [0, 1, 7] {
                let edited = edit_one_gain(&bench.model, k).expect(bench.name);
                assert_ne!(
                    edited, bench.model,
                    "{}: edit {k} changed nothing",
                    bench.name
                );
                assert_eq!(edited.deep_len(), bench.model.deep_len());
            }
        }
    }

    #[test]
    fn jobs_are_deterministic_in_the_seed() {
        let a = table1_jobs(3).unwrap();
        let b = table1_jobs(3).unwrap();
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.slx, y.slx);
            assert_eq!(x.edited_slx, y.edited_slx);
            assert_ne!(x.slx, x.edited_slx);
        }
    }

    #[test]
    fn synthetic_models_follow_the_seed() {
        let a = synth_job(11, 60).unwrap();
        let b = synth_job(11, 60).unwrap();
        let c = synth_job(12, 60).unwrap();
        assert_eq!(a.slx, b.slx);
        assert_ne!(a.slx, c.slx);
        assert_ne!(a.slx, a.edited_slx);
        assert_eq!(
            a.name,
            synth_job(11, 90).unwrap().name.replace(":90", ":60")
        );
    }
}
