//! Full training run-state capture (`GNRS` files) for crash-safe,
//! bit-exact resume.
//!
//! A weights checkpoint alone cannot resume training faithfully: Adam's
//! moment estimates, the RNG position (batch shuffles, dropout masks,
//! noise draws) and the epoch counter all shape the next update. A
//! [`RunState`] bundles every one of those, so a run killed after epoch
//! *k* and resumed produces — under the deterministic f64 accumulation
//! mode — exactly the weights a straight run would have produced. CI
//! proves that with a cross-process oracle (`scripts/ci.sh`). It also
//! carries each completed epoch's loss and seconds, so a resumed run
//! reports the whole run's history, not just the epochs it trained.
//!
//! The on-disk layout (version 2, all integers little-endian):
//!
//! ```text
//! magic "GNRS" | version u32 | epoch u64 | accum u32 (1 f32, 2 f64)
//! rng state 4×u64
//! store count u32 | per store: name | param count u32 | per param: name, tensor
//! optim count u32 | per optim: name | lr f32-bits u32 | t u64
//!                 | moment count u32 | per moment: flag u32 [, m tensor]
//!                                    | flag u32 [, v tensor]
//! per completed epoch: loss f32-bits u32 | seconds f64-bits u64
//! file CRC-32 u32
//! ```
//!
//! Version 1 lacked the per-epoch history; a version-1 file is refused
//! with [`CheckpointError::Format`], and the run starts fresh.
//!
//! Strings and tensors use the shared wire forms of [`crate::serialize`]'s
//! GNDF container; writes go through the same atomic
//! temp-fsync-rename path, under the fault-injection site `save_state`
//! (keep-last-N rotation adds the `save_rotate` and `save_manifest`
//! sites — see [`RunState::save_rotated`]).

use crate::optim::AdamState;
use crate::params::Params;
use crate::serialize::CheckpointError;
use crate::wire::{atomic_write, crc32, to_u32, Cursor, Enc};
use gandef_tensor::accum::Accum;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"GNRS";
const VERSION: u32 = 2;

/// Everything needed to continue a training run from an epoch boundary.
#[derive(Clone, Debug)]
pub struct RunState {
    /// Completed epochs (the resume point: training continues at this
    /// epoch index).
    pub epoch: u64,
    /// Accumulation mode the run was training under, always recorded.
    /// A resume refuses to silently continue under a different mode —
    /// mixing f32 and f64 accumulation breaks the bit-exactness story.
    pub accum: Accum,
    /// The training RNG's full state at the epoch boundary.
    pub rng: [u64; 4],
    /// Named parameter stores — one for single-network defenses, two
    /// (classifier + discriminator) for the GAN trainers.
    pub stores: Vec<(String, Params)>,
    /// Named optimizer states, parallel to the stores that they update.
    pub optims: Vec<(String, AdamState)>,
    /// Mean training loss of each completed epoch (`epoch` entries).
    pub epoch_losses: Vec<f32>,
    /// Wall-clock seconds of each completed epoch (`epoch` entries).
    pub epoch_seconds: Vec<f64>,
}

impl RunState {
    /// File name of the run state inside a checkpoint directory.
    pub const FILE_NAME: &'static str = "run_state.gnrs";

    /// File name of the rotation manifest inside a checkpoint directory.
    /// Lists the kept stamped run states, newest first.
    pub const MANIFEST_NAME: &'static str = "checkpoints.manifest";

    const MANIFEST_MAGIC: &'static str = "GNRS-MANIFEST v1";

    /// The run-state path inside checkpoint directory `dir`.
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(Self::FILE_NAME)
    }

    /// File name of the stamped (rotated) run state for `epoch`.
    pub fn stamped_name(epoch: u64) -> String {
        format!("run_state.e{epoch}.gnrs")
    }

    /// Serializes to checksummed GNRS bytes.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] if a count or tensor field exceeds the
    /// u32 wire range, or the history does not hold one entry per
    /// completed epoch.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut enc = Enc::new();
        enc.put_bytes(MAGIC);
        enc.put_u32(VERSION);
        enc.put_u64(self.epoch);
        enc.put_u32(match self.accum {
            Accum::F32 => 1,
            Accum::F64 => 2,
        });
        for w in self.rng {
            enc.put_u64(w);
        }
        enc.put_u32(to_u32(self.stores.len(), "store count")?);
        for (name, params) in &self.stores {
            enc.put_str(name)?;
            enc.put_u32(to_u32(params.len(), "parameter count")?);
            for (pname, tensor) in params.iter() {
                enc.put_str(pname)?;
                enc.put_tensor(tensor)?;
            }
        }
        enc.put_u32(to_u32(self.optims.len(), "optimizer count")?);
        for (name, state) in &self.optims {
            enc.put_str(name)?;
            enc.put_u32(state.lr.to_bits());
            enc.put_u64(state.t);
            if state.m.len() != state.v.len() {
                return Err(CheckpointError::Format(format!(
                    "optimizer {name:?}: m/v length mismatch ({} vs {})",
                    state.m.len(),
                    state.v.len()
                )));
            }
            enc.put_u32(to_u32(state.m.len(), "moment count")?);
            for (m, v) in state.m.iter().zip(&state.v) {
                for t in [m, v] {
                    match t {
                        Some(t) => {
                            enc.put_u32(1);
                            enc.put_tensor(t)?;
                        }
                        None => enc.put_u32(0),
                    }
                }
            }
        }
        let epochs = self.epoch as usize;
        if self.epoch_losses.len() != epochs || self.epoch_seconds.len() != epochs {
            return Err(CheckpointError::Format(format!(
                "history holds {} losses and {} timings for {epochs} epochs",
                self.epoch_losses.len(),
                self.epoch_seconds.len()
            )));
        }
        for (loss, secs) in self.epoch_losses.iter().zip(&self.epoch_seconds) {
            enc.put_u32(loss.to_bits());
            enc.put_u64(secs.to_bits());
        }
        let crc = crc32(enc.bytes());
        enc.put_u32(crc);
        Ok(enc.into_bytes())
    }

    /// Parses GNRS bytes. Total over arbitrary input: any byte sequence
    /// yields `Ok` or a typed error, never a panic.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] on bad magic, unsupported version,
    /// truncation, checksum mismatch or malformed content.
    pub fn from_bytes(bytes: &[u8]) -> Result<RunState, CheckpointError> {
        let mut cur = Cursor::new(bytes);
        if cur.take(4)? != MAGIC {
            return Err(CheckpointError::Format(
                "bad magic (not a GNRS file)".into(),
            ));
        }
        let version = cur.get_u32()?;
        if version != VERSION {
            return Err(CheckpointError::Format(format!(
                "unsupported run-state version {version}"
            )));
        }
        if bytes.len() < 12 {
            return Err(CheckpointError::Format("truncated: no checksum".into()));
        }
        let body = &bytes[..bytes.len() - 4];
        let stored = u32::from_le_bytes([
            bytes[bytes.len() - 4],
            bytes[bytes.len() - 3],
            bytes[bytes.len() - 2],
            bytes[bytes.len() - 1],
        ]);
        let actual = crc32(body);
        if stored != actual {
            return Err(CheckpointError::Format(format!(
                "run-state checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        let epoch = cur.get_u64()?;
        let accum = match cur.get_u32()? {
            1 => Accum::F32,
            2 => Accum::F64,
            other => {
                return Err(CheckpointError::Format(format!(
                    "unknown accumulation tag {other}"
                )))
            }
        };
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = cur.get_u64()?;
        }
        let store_count = cur.get_u32()? as usize;
        if store_count > 64 {
            return Err(CheckpointError::Format(format!(
                "implausible store count {store_count}"
            )));
        }
        let mut stores = Vec::with_capacity(store_count);
        for _ in 0..store_count {
            let name = cur.get_str()?;
            let count = cur.get_u32()? as usize;
            if count > 1_000_000 {
                return Err(CheckpointError::Format(format!(
                    "store {name:?}: implausible parameter count {count}"
                )));
            }
            let mut params = Params::new();
            for _ in 0..count {
                let pname = cur.get_str()?;
                let tensor = cur.get_tensor(&pname)?;
                if params.contains(&pname) {
                    return Err(CheckpointError::Format(format!(
                        "store {name:?}: duplicate parameter {pname:?}"
                    )));
                }
                params.insert(&pname, tensor);
            }
            stores.push((name, params));
        }
        let optim_count = cur.get_u32()? as usize;
        if optim_count > 64 {
            return Err(CheckpointError::Format(format!(
                "implausible optimizer count {optim_count}"
            )));
        }
        let mut optims = Vec::with_capacity(optim_count);
        for _ in 0..optim_count {
            let name = cur.get_str()?;
            let lr = f32::from_bits(cur.get_u32()?);
            let t = cur.get_u64()?;
            let moments = cur.get_u32()? as usize;
            if moments > 1_000_000 {
                return Err(CheckpointError::Format(format!(
                    "optimizer {name:?}: implausible moment count {moments}"
                )));
            }
            let mut m = Vec::with_capacity(moments);
            let mut v = Vec::with_capacity(moments);
            for _ in 0..moments {
                for slot in [&mut m, &mut v] {
                    match cur.get_u32()? {
                        0 => slot.push(None),
                        1 => slot.push(Some(cur.get_tensor(&name)?)),
                        other => {
                            return Err(CheckpointError::Format(format!(
                                "optimizer {name:?}: bad moment flag {other}"
                            )))
                        }
                    }
                }
            }
            optims.push((name, AdamState { lr, t, m, v }));
        }
        let (mut epoch_losses, mut epoch_seconds) = (Vec::new(), Vec::new());
        for _ in 0..epoch {
            epoch_losses.push(f32::from_bits(cur.get_u32()?));
            epoch_seconds.push(f64::from_bits(cur.get_u64()?));
        }
        if cur.remaining() != 4 {
            return Err(CheckpointError::Format(format!(
                "{} unexpected trailing bytes",
                cur.remaining().saturating_sub(4)
            )));
        }
        Ok(RunState {
            epoch,
            accum,
            rng,
            stores,
            optims,
            epoch_losses,
            epoch_seconds,
        })
    }

    /// Atomically writes the run state into checkpoint directory `dir`
    /// (created if absent). Fault-injection site: `save_state`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures — the previous run
    /// state, if any, is left intact.
    pub fn save(&self, dir: &Path) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(dir)?;
        let bytes = self.to_bytes()?;
        atomic_write(&Self::path_in(dir), "save_state", &bytes)?;
        Ok(())
    }

    /// Loads the run state from checkpoint directory `dir`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read (including
    /// not-found, which resume logic treats as "start fresh"), or
    /// [`CheckpointError::Format`] if it fails validation.
    pub fn load(dir: &Path) -> Result<RunState, CheckpointError> {
        let bytes = std::fs::read(Self::path_in(dir))?;
        RunState::from_bytes(&bytes)
    }

    /// Atomically writes the run state with keep-last-`keep` rotation.
    ///
    /// With `keep <= 1` this is exactly [`RunState::save`]. Otherwise the
    /// write happens in a crash-ordered sequence so a kill at any point
    /// leaves at least one complete, loadable state on disk:
    ///
    /// 1. a stamped copy `run_state.e{epoch}.gnrs` (fault-injection site
    ///    `save_rotate`),
    /// 2. the manifest listing the kept stamps newest-first (site
    ///    `save_manifest`),
    /// 3. the primary `run_state.gnrs` (site `save_state`),
    /// 4. best-effort pruning of stamps that fell off the end.
    ///
    /// A crash before step 3 leaves the old primary intact; a crash after
    /// it leaves the new one — either way [`RunState::load_any`] finds a
    /// usable state. Stray stamped files not named by the manifest are
    /// harmless debris.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failures in steps 1–3.
    pub fn save_rotated(&self, dir: &Path, keep: usize) -> Result<(), CheckpointError> {
        if keep <= 1 {
            return self.save(dir);
        }
        std::fs::create_dir_all(dir)?;
        let bytes = self.to_bytes()?;
        let stamp = Self::stamped_name(self.epoch);
        atomic_write(&dir.join(&stamp), "save_rotate", &bytes)?;

        let mut kept = vec![stamp.clone()];
        for prior in Self::read_manifest(dir).unwrap_or_default() {
            if prior != stamp && kept.len() < keep {
                kept.push(prior);
            }
        }
        let mut manifest = String::from(Self::MANIFEST_MAGIC);
        for name in &kept {
            manifest.push('\n');
            manifest.push_str(name);
        }
        manifest.push('\n');
        atomic_write(
            &dir.join(Self::MANIFEST_NAME),
            "save_manifest",
            manifest.as_bytes(),
        )?;

        atomic_write(&Self::path_in(dir), "save_state", &bytes)?;

        // Prune dropped stamps; best-effort (a leftover stamp is inert).
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with("run_state.e")
                    && name.ends_with(".gnrs")
                    && !kept.iter().any(|k| k == name)
                {
                    // lint:allow(errprop) — best-effort prune: a stamp
                    // missing from the manifest is inert and the next
                    // save retries it; the save itself already
                    // succeeded and must not fail over cleanup.
                    std::fs::remove_file(entry.path()).ok();
                }
            }
        }
        Ok(())
    }

    /// The manifest's stamped-file list (newest first), if a well-formed
    /// manifest exists. Entries naming other directories are dropped.
    pub fn read_manifest(dir: &Path) -> Option<Vec<String>> {
        let text = std::fs::read_to_string(dir.join(Self::MANIFEST_NAME)).ok()?;
        let mut lines = text.lines();
        if lines.next() != Some(Self::MANIFEST_MAGIC) {
            return None;
        }
        Some(
            lines
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.contains('/') && !l.contains('\\'))
                .map(str::to_string)
                .collect(),
        )
    }

    /// Loads the primary run state, falling back through the rotation
    /// manifest's stamped states (newest first) when the primary is
    /// missing or damaged. Returns the state and, for a fallback, the
    /// stamped file it came from.
    ///
    /// Without a manifest this is exactly [`RunState::load`] — a corrupt
    /// primary in an unrotated directory still fails loudly.
    ///
    /// # Errors
    ///
    /// The primary's error when no manifest entry yields a valid state
    /// (not-found only when the primary was not found).
    pub fn load_any(dir: &Path) -> Result<(RunState, Option<String>), CheckpointError> {
        let primary_err = match Self::load(dir) {
            Ok(state) => return Ok((state, None)),
            Err(e) => e,
        };
        for stamp in Self::read_manifest(dir).unwrap_or_default() {
            if let Ok(bytes) = std::fs::read(dir.join(&stamp)) {
                if let Ok(state) = RunState::from_bytes(&bytes) {
                    return Ok((state, Some(stamp)));
                }
            }
        }
        Err(primary_err)
    }
}

/// Order-sensitive 64-bit FNV-1a fingerprint of a parameter store
/// (names and exact f32 bit patterns). Two stores fingerprint equal iff
/// they have identical names in identical order with bit-identical
/// values — the equality the cross-process resume oracle checks.
pub fn params_fingerprint(params: &Params) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (name, tensor) in params.iter() {
        eat(name.as_bytes());
        eat(&[0xFF]); // name/data separator
        for &v in tensor.as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gandef_tensor::rng::Prng;
    use gandef_tensor::Tensor;

    fn sample_state() -> RunState {
        let mut rng = Prng::new(3);
        let mut model = Params::new();
        model.insert("fc.w", rng.uniform_tensor(&[4, 3], -1.0, 1.0));
        model.insert("fc.b", rng.uniform_tensor(&[3], -1.0, 1.0));
        let mut disc = Params::new();
        disc.insert("d1.w", rng.uniform_tensor(&[3, 2], -1.0, 1.0));
        let opt = AdamState {
            lr: 0.00075,
            t: 42,
            m: vec![Some(rng.uniform_tensor(&[4, 3], -0.1, 0.1)), None],
            v: vec![Some(rng.uniform_tensor(&[4, 3], 0.0, 0.1)), None],
        };
        RunState {
            epoch: 7,
            accum: Accum::F64,
            rng: rng.state(),
            stores: vec![("model".into(), model), ("disc".into(), disc)],
            optims: vec![("opt_c".into(), opt)],
            epoch_losses: vec![2.3, 1.9, 1.5, 1.2, 1.0, 0.9, 0.85],
            epoch_seconds: vec![1.5, 1.25, 1.0, 1.0, 0.75, 1.0, 1.0],
        }
    }

    /// `state` as of `epoch` completed epochs, history truncated to match.
    fn at_epoch(mut state: RunState, epoch: u64) -> RunState {
        state.epoch = epoch;
        state.epoch_losses.truncate(epoch as usize);
        state.epoch_seconds.truncate(epoch as usize);
        state
    }

    fn assert_states_equal(a: &RunState, b: &RunState) {
        assert_eq!(a.epoch, b.epoch);
        let bits = |s: &RunState| -> Vec<(u32, u64)> {
            s.epoch_losses
                .iter()
                .zip(&s.epoch_seconds)
                .map(|(l, t)| (l.to_bits(), t.to_bits()))
                .collect()
        };
        assert_eq!(bits(a), bits(b), "per-epoch history");
        assert_eq!(a.accum, b.accum);
        assert_eq!(a.rng, b.rng);
        assert_eq!(a.stores.len(), b.stores.len());
        for ((an, ap), (bn, bp)) in a.stores.iter().zip(&b.stores) {
            assert_eq!(an, bn);
            assert_eq!(params_fingerprint(ap), params_fingerprint(bp));
        }
        assert_eq!(a.optims.len(), b.optims.len());
        for ((an, ao), (bn, bo)) in a.optims.iter().zip(&b.optims) {
            assert_eq!(an, bn);
            assert_eq!(ao.lr.to_bits(), bo.lr.to_bits());
            assert_eq!(ao.t, bo.t);
            assert_eq!(ao.m.len(), bo.m.len());
            for (x, y) in ao.m.iter().chain(&ao.v).zip(bo.m.iter().chain(&bo.v)) {
                match (x, y) {
                    (None, None) => {}
                    (Some(x), Some(y)) => assert_eq!(x, y),
                    other => panic!("moment presence differs: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn bytes_roundtrip_is_lossless() {
        let state = sample_state();
        let bytes = state.to_bytes().unwrap();
        let back = RunState::from_bytes(&bytes).unwrap();
        assert_states_equal(&state, &back);
    }

    #[test]
    fn accum_tag_roundtrips_every_mode() {
        for accum in [Accum::F32, Accum::F64] {
            let mut state = sample_state();
            state.accum = accum;
            let back = RunState::from_bytes(&state.to_bytes().unwrap()).unwrap();
            assert_eq!(back.accum, accum);
        }
    }

    #[test]
    fn retired_accum_tag_is_a_format_error() {
        // Tag 0 meant "no mode recorded", which no writer emits; tag 3
        // was the compensated-f32 mode, which no longer exists. A run state carrying either must fail loudly
        // rather than resume under a guessed mode.
        for retired in [0u32, 3] {
            let mut bytes = sample_state().to_bytes().unwrap();
            let tag = MAGIC.len() + 4 + 8; // magic | version u32 | epoch u64
            bytes[tag..tag + 4].copy_from_slice(&retired.to_le_bytes());
            let body = bytes.len() - 4;
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            match RunState::from_bytes(&bytes) {
                Err(CheckpointError::Format(msg)) => assert!(
                    msg.contains(&format!("unknown accumulation tag {retired}")),
                    "{msg}"
                ),
                other => panic!("expected a format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn version_1_state_is_a_format_error() {
        // A genuine version-1 file: today's bytes without the per-epoch
        // history, stamped version 1, checksum recomputed. Resuming from
        // it would report a history shorter than its epoch count.
        let state = sample_state();
        let v2 = state.to_bytes().unwrap();
        let history = state.epoch as usize * (4 + 8);
        let mut v1 = v2[..v2.len() - 4 - history].to_vec();
        v1[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        let crc = crc32(&v1);
        v1.extend_from_slice(&crc.to_le_bytes());
        match RunState::from_bytes(&v1) {
            Err(CheckpointError::Format(msg)) => {
                assert!(msg.contains("version 1"), "{msg}")
            }
            other => panic!("expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn history_must_hold_one_entry_per_epoch() {
        let mut short = sample_state();
        short.epoch_seconds.pop();
        let err = short.to_bytes().unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        let mut long = sample_state();
        long.epoch -= 1;
        let err = long.to_bytes().unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn save_load_roundtrip_via_directory() {
        let dir = std::env::temp_dir().join(format!("gnrs-{}", std::process::id()));
        let state = sample_state();
        state.save(&dir).unwrap();
        let back = RunState::load(&dir).unwrap();
        assert_states_equal(&state, &back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_last_n_with_manifest_and_fallback() {
        let dir = std::env::temp_dir().join(format!("gnrs-rot-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        for epoch in 1..=5u64 {
            at_epoch(sample_state(), epoch)
                .save_rotated(&dir, 3)
                .unwrap();
        }
        let (back, from) = RunState::load_any(&dir).unwrap();
        assert_eq!(back.epoch, 5);
        assert_eq!(from, None, "healthy primary wins");
        assert_eq!(
            RunState::read_manifest(&dir).unwrap(),
            vec![
                "run_state.e5.gnrs",
                "run_state.e4.gnrs",
                "run_state.e3.gnrs"
            ]
        );
        assert!(!dir.join("run_state.e1.gnrs").exists(), "pruned");
        assert!(!dir.join("run_state.e2.gnrs").exists(), "pruned");

        // Corrupt the primary: fallback serves the newest stamp.
        let primary = RunState::path_in(&dir);
        let mut bytes = std::fs::read(&primary).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&primary, &bytes).unwrap();
        let (back, from) = RunState::load_any(&dir).unwrap();
        assert_eq!(back.epoch, 5);
        assert_eq!(from.as_deref(), Some("run_state.e5.gnrs"));

        // Lose the primary and the newest stamp: falls through to e4.
        std::fs::remove_file(&primary).unwrap();
        std::fs::remove_file(dir.join("run_state.e5.gnrs")).unwrap();
        let (back, from) = RunState::load_any(&dir).unwrap();
        assert_eq!(back.epoch, 4);
        assert_eq!(from.as_deref(), Some("run_state.e4.gnrs"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_any_without_manifest_fails_like_load() {
        let dir = std::env::temp_dir().join(format!("gnrs-noman-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let state = sample_state();
        state.save_rotated(&dir, 1).unwrap();
        assert!(
            !dir.join(RunState::MANIFEST_NAME).exists(),
            "keep=1 writes no manifest"
        );
        let primary = RunState::path_in(&dir);
        let mut bytes = std::fs::read(&primary).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&primary, &bytes).unwrap();
        let err = RunState::load_any(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_state_is_io_error() {
        let dir = std::env::temp_dir().join("gnrs-definitely-absent");
        let err = RunState::load(&dir).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn corruption_fuzz_never_panics_and_never_passes() {
        let bytes = sample_state().to_bytes().unwrap();
        for end in 0..bytes.len() {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                RunState::from_bytes(&bytes[..end]).err()
            }));
            let err = result.unwrap_or_else(|_| panic!("panicked on {end}-byte prefix"));
            assert!(err.is_some(), "accepted a {end}-byte truncation");
        }
        for offset in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[offset] ^= mask;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    RunState::from_bytes(&mutated).err()
                }));
                let err = result.unwrap_or_else(|_| {
                    panic!("panicked on byte {offset} flipped with {mask:#04x}")
                });
                assert!(
                    err.is_some(),
                    "accepted corruption at byte {offset} (mask {mask:#04x})"
                );
            }
        }
    }

    #[test]
    fn fingerprint_is_order_and_bit_sensitive() {
        let mut a = Params::new();
        a.insert("x", Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        a.insert("y", Tensor::from_vec(vec![1], vec![3.0]));
        let mut b = Params::new();
        b.insert("y", Tensor::from_vec(vec![1], vec![3.0]));
        b.insert("x", Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        assert_ne!(params_fingerprint(&a), params_fingerprint(&b));
        let mut c = Params::new();
        c.insert("x", Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        c.insert("y", Tensor::from_vec(vec![1], vec![3.0]));
        assert_eq!(params_fingerprint(&a), params_fingerprint(&c));
        // -0.0 and 0.0 compare equal as floats but are different states.
        let mut d = Params::new();
        d.insert("x", Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        d.insert("y", Tensor::from_vec(vec![1], vec![-0.0]));
        let mut e = Params::new();
        e.insert("x", Tensor::from_vec(vec![2], vec![1.0, 2.0]));
        e.insert("y", Tensor::from_vec(vec![1], vec![0.0]));
        assert_ne!(params_fingerprint(&d), params_fingerprint(&e));
    }
}
