//! Parameter checkpointing: save and load a [`Params`] store.
//!
//! The format is a small self-describing binary container (`GNDF`),
//! version 2:
//!
//! ```text
//! magic "GNDF" | version u32 | entry count u32
//! per entry: name_len u32 | name bytes | rank u32 | dims u32...
//!            | data_len u32 | f32 data (little-endian)
//!            | entry CRC-32 u32   (over this entry's preceding bytes)
//! trailer:   file CRC-32 u32     (over everything before it)
//! ```
//!
//! The per-entry CRC pinpoints *which* tensor a corruption hit; the
//! whole-file CRC catches truncation and anything between entries. Writes
//! are atomic (temp file in the target directory, fsync, rename — see
//! [`crate::wire::atomic_write`]), so a crash mid-save leaves the previous
//! checkpoint intact rather than a torn file. The loader accepts version 2
//! only, so every checkpoint it returns has passed both checksums;
//! version-1 files, which carried none, are rejected.
//!
//! Architectures themselves are code (see [`crate::zoo`]); a checkpoint
//! restores the *weights* into a freshly built model of the same
//! structure, which is how frameworks without reflection normally persist
//! models.

use crate::params::Params;
use crate::wire::{atomic_write, crc32, to_u32, Cursor, Enc};
use std::fmt;
use std::path::Path;

const MAGIC: &[u8; 4] = b"GNDF";
const VERSION: u32 = 2;

/// Errors arising while reading or writing checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a GNDF checkpoint or is structurally corrupt
    /// (bad magic, truncation, checksum mismatch, malformed entry).
    Format(String),
    /// The checkpoint does not match the model it is being loaded into.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serializes `params` into GNDF v2 bytes (checksummed).
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] if any field (entry count, name
/// length, rank, a dimension, or element count) exceeds the format's u32
/// range — a silently truncated cast would write a structurally
/// valid-looking file the loader then rejects, or worse, misparses.
pub fn params_to_bytes(params: &Params) -> Result<Vec<u8>, CheckpointError> {
    let mut enc = Enc::new();
    enc.put_bytes(MAGIC);
    enc.put_u32(VERSION);
    enc.put_u32(to_u32(params.len(), "entry count")?);
    for (name, tensor) in params.iter() {
        let mut entry = Enc::new();
        entry.put_str(name)?;
        entry.put_tensor(tensor)?;
        let crc = crc32(entry.bytes());
        enc.put_bytes(entry.bytes());
        enc.put_u32(crc);
    }
    let file_crc = crc32(enc.bytes());
    enc.put_u32(file_crc);
    Ok(enc.into_bytes())
}

/// Writes `params` to `path` in GNDF v2 format, atomically: the bytes go
/// to a temporary file in the same directory, which is fsynced and then
/// renamed over `path`. A crash at any point leaves either the previous
/// file or the new one — never a torn mixture.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem failures (the target is
/// left untouched) and [`CheckpointError::Format`] for u32-range
/// violations as described on [`params_to_bytes`].
pub fn save_params(params: &Params, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let bytes = params_to_bytes(params)?;
    atomic_write(path.as_ref(), "save_params", &bytes)?;
    Ok(())
}

/// Parses a GNDF checkpoint from bytes already in memory.
///
/// This is the whole loader — [`load_params`] is a thin file-reading
/// wrapper — and it is total: any byte sequence yields `Ok` or a typed
/// error, never a panic. The corruption fuzz tests drive this entry point
/// over every truncation prefix and single-byte flip of a valid file.
/// An `Ok` means both checksums of every entry and of the file were
/// verified.
///
/// # Errors
///
/// [`CheckpointError::Format`] on bad magic, any version but 2 (version 1
/// carried no checksums), truncation, checksum mismatch or any malformed
/// entry.
pub fn load_params_from_bytes(bytes: &[u8]) -> Result<Params, CheckpointError> {
    // Everything but the 4-byte file checksum trailer.
    let (body, trailer) = bytes.split_at(bytes.len().saturating_sub(4));
    let mut cur = Cursor::new(body);
    if cur.take(4)? != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = cur.get_u32()?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }
    // Whole-file CRC first: cheap, and it catches truncation and
    // inter-entry corruption before any structural parsing.
    if bytes.len() < 16 {
        return Err(CheckpointError::Format(
            "truncated: no file checksum".into(),
        ));
    }
    let stored = Cursor::new(trailer).get_u32()?;
    let actual = crc32(body);
    if stored != actual {
        return Err(CheckpointError::Format(format!(
            "file checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    let count = cur.get_u32()? as usize;
    if count > 1_000_000 {
        return Err(CheckpointError::Format(format!(
            "implausible entry count {count}"
        )));
    }
    let mut params = Params::new();
    for _ in 0..count {
        let entry_start = cur.pos();
        let name = cur.get_str()?;
        let tensor = cur.get_tensor(&name)?;
        let stored = cur.get_u32()?;
        let actual = crc32(&body[entry_start..cur.pos() - 4]);
        if stored != actual {
            return Err(CheckpointError::Format(format!(
                "entry {name:?}: checksum mismatch"
            )));
        }
        if params.contains(&name) {
            return Err(CheckpointError::Format(format!(
                "duplicate entry name {name:?}"
            )));
        }
        params.insert(&name, tensor);
    }
    if cur.remaining() != 0 {
        return Err(CheckpointError::Format(format!(
            "{} unexpected trailing bytes",
            cur.remaining()
        )));
    }
    Ok(params)
}

/// Reads a GNDF checkpoint into a fresh [`Params`] store.
///
/// # Errors
///
/// [`CheckpointError::Io`] on filesystem failures,
/// [`CheckpointError::Format`] for anything wrong with the bytes (see
/// [`load_params_from_bytes`]).
pub fn load_params(path: impl AsRef<Path>) -> Result<Params, CheckpointError> {
    let bytes = std::fs::read(path)?;
    load_params_from_bytes(&bytes)
}

/// Content fingerprint of a checkpoint file (FNV-1a 64), for cheap
/// change detection — the hot-reload watcher folds this into its poll
/// key so a same-length, same-mtime rewrite is still noticed. This does
/// *not* parse or verify the checkpoint — it fingerprints whatever bytes
/// are on disk, torn or not.
///
/// The fingerprint is deliberately **not** CRC-32: the format embeds a
/// CRC-32 after every entry and at the end of the file, and because
/// CRC-32 is linear over GF(2), any segment followed by its own CRC
/// cancels out of a running CRC *at any stream position* (the residue
/// property `crc32(m ‖ crc32(m)) = 0x2144_DF1C` generalized to interior
/// segments). A CRC-32 over these files is therefore the same constant
/// for every well-formed checkpoint, no matter how it is truncated
/// around the trailers. FNV-1a mixes with multiplication, which has no
/// such structure.
///
/// # Errors
///
/// Propagates the [`std::io::Error`] if the file cannot be read.
pub fn checkpoint_fingerprint(path: impl AsRef<Path>) -> std::io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(h)
}

/// Restores a checkpoint into an existing store (e.g. a freshly
/// initialized [`crate::Net`]'s parameters): the name sets must match
/// exactly and every shape must agree.
///
/// # Errors
///
/// Returns [`CheckpointError::Mismatch`] naming the parameters missing
/// from the checkpoint *and* the checkpoint entries unknown to the model
/// (both directions — an earlier version reported only one side, which
/// made "renamed a layer" errors read as the wrong file's fault), or the
/// first shape disagreement.
pub fn restore_params(target: &mut Params, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let loaded = load_params(path)?;
    restore_params_from(target, &loaded)
}

/// [`restore_params`] over an already-loaded store — the run-state
/// restore path uses this to apply the same name/shape contract without
/// round-tripping through a file.
///
/// # Errors
///
/// Same contract as [`restore_params`].
pub fn restore_params_from(target: &mut Params, loaded: &Params) -> Result<(), CheckpointError> {
    let missing: Vec<&str> = target
        .iter()
        .map(|(n, _)| n)
        .filter(|n| !loaded.contains(n))
        .collect();
    let unknown: Vec<&str> = loaded
        .iter()
        .map(|(n, _)| n)
        .filter(|n| !target.contains(n))
        .collect();
    if !missing.is_empty() || !unknown.is_empty() {
        return Err(CheckpointError::Mismatch(format!(
            "parameter names disagree: model parameters missing from checkpoint: {missing:?}; \
             checkpoint entries unknown to model: {unknown:?}"
        )));
    }
    for (name, tensor) in loaded.iter() {
        let slot = target.get_mut(name);
        if slot.shape() != tensor.shape() {
            return Err(CheckpointError::Mismatch(format!(
                "tensor {name:?}: checkpoint shape {} vs model shape {}",
                tensor.shape(),
                slot.shape()
            )));
        }
        *slot = tensor.clone();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{with_fault, FaultSpec};
    use gandef_tensor::rng::Prng;
    use gandef_tensor::Tensor;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gndf-test-{}-{tag}.bin", std::process::id()))
    }

    fn sample_params() -> Params {
        let mut rng = Prng::new(1);
        let mut p = Params::new();
        p.insert("conv1.w", rng.uniform_tensor(&[4, 1, 3, 3], -1.0, 1.0));
        p.insert("conv1.b", rng.uniform_tensor(&[4, 1, 1], -1.0, 1.0));
        p.insert("fc.w", rng.uniform_tensor(&[16, 10], -1.0, 1.0));
        p
    }

    #[test]
    fn checkpoint_fingerprint_distinguishes_valid_checkpoints() {
        // Regression: the format's embedded CRC-32 trailers make *any*
        // CRC-32 of the file the same residue constant for every valid
        // checkpoint (segment ‖ own-CRC cancels at any stream position) —
        // the fingerprint must use a non-linear hash, or two different
        // weight sets hash identically and hot-reload goes blind.
        let (a, b) = (temp_path("crc-a"), temp_path("crc-b"));
        // Same names and shapes as `sample_params`, different values.
        let mut rng = Prng::new(2);
        let mut other = Params::new();
        other.insert("conv1.w", rng.uniform_tensor(&[4, 1, 3, 3], -1.0, 1.0));
        other.insert("conv1.b", rng.uniform_tensor(&[4, 1, 1], -1.0, 1.0));
        other.insert("fc.w", Tensor::full(&[16, 10], 0.25));
        save_params(&sample_params(), &a).unwrap();
        save_params(&other, &b).unwrap();
        assert_eq!(
            std::fs::metadata(&a).unwrap().len(),
            std::fs::metadata(&b).unwrap().len(),
            "same-length files, or the test proves nothing"
        );
        assert_ne!(
            checkpoint_fingerprint(&a).unwrap(),
            checkpoint_fingerprint(&b).unwrap(),
            "different weights must fingerprint differently"
        );
        // Same content → same fingerprint (it is a pure content hash).
        save_params(&other, &a).unwrap();
        assert_eq!(
            checkpoint_fingerprint(&a).unwrap(),
            checkpoint_fingerprint(&b).unwrap()
        );
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let path = temp_path("roundtrip");
        let original = sample_params();
        save_params(&original, &path).unwrap();
        let loaded = load_params(&path).unwrap();
        assert_eq!(loaded.len(), original.len());
        assert_eq!(loaded.names(), original.names());
        for (name, tensor) in original.iter() {
            assert_eq!(loaded.get(name), tensor, "{name}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_into_model_overwrites_weights() {
        let path = temp_path("restore");
        let trained = sample_params();
        save_params(&trained, &path).unwrap();
        // A "fresh" model with the same structure but different values.
        let mut fresh = sample_params();
        fresh.get_mut("fc.w").map_inplace(|_| 0.0);
        restore_params(&mut fresh, &path).unwrap();
        assert_eq!(fresh.get("fc.w"), trained.get("fc.w"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let path = temp_path("mismatch");
        save_params(&sample_params(), &path).unwrap();
        let mut other = Params::new();
        other.insert("conv1.w", Tensor::zeros(&[4, 1, 3, 3]));
        other.insert("conv1.b", Tensor::zeros(&[4, 1, 1]));
        other.insert("fc.w", Tensor::zeros(&[16, 12])); // wrong shape
        let err = restore_params(&mut other, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_reports_name_mismatches_in_both_directions() {
        let path = temp_path("asymmetry");
        save_params(&sample_params(), &path).unwrap();

        // Model has a parameter the checkpoint lacks.
        let mut extra = sample_params();
        extra.insert("bn.gamma", Tensor::ones(&[4]));
        let err = restore_params(&mut extra, &path).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Mismatch(m) if m.contains("missing from checkpoint")
                && m.contains("bn.gamma")),
            "{err}"
        );

        // Checkpoint has an entry the model lacks.
        let mut smaller = Params::new();
        smaller.insert("conv1.w", Tensor::zeros(&[4, 1, 3, 3]));
        smaller.insert("conv1.b", Tensor::zeros(&[4, 1, 1]));
        let err = restore_params(&mut smaller, &path).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Mismatch(m) if m.contains("unknown to model")
                && m.contains("fc.w")),
            "{err}"
        );

        // Same count, different names — the old length-only precheck
        // accepted this far enough to give a one-sided message.
        let mut renamed = sample_params();
        let err = {
            let mut p = Params::new();
            for (name, t) in renamed.iter() {
                let name = if name == "fc.w" { "fc.weight" } else { name };
                p.insert(name, t.clone());
            }
            renamed = p;
            restore_params(&mut renamed, &path).unwrap_err()
        };
        assert!(
            matches!(&err, CheckpointError::Mismatch(m) if m.contains("fc.weight")
                && m.contains("fc.w")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn header_fields_beyond_u32_are_format_errors() {
        // Every header field the writer emits goes through to_u32; a
        // tensor with a > u32::MAX dimension cannot be built cheaply
        // (Shape rejects zero-sized dims, and 2^32 real elements is
        // 16 GiB), so the boundary is checked on the helper itself. The
        // old code's `as u32` silently truncated: 2^33 became 0.
        assert_eq!(to_u32(u32::MAX as usize, "dimension").unwrap(), u32::MAX);
        let err = to_u32(1usize << 33, "dimension").unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("dimension")),
            "{err}"
        );
        let err = to_u32(u32::MAX as usize + 1, "element count").unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn load_rejects_garbage() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let err = load_params(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_truncated_file() {
        // With the whole-file CRC, truncation is detected as corruption
        // (Format), not as an incidental unexpected-EOF Io error.
        let path = temp_path("truncated");
        save_params(&sample_params(), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_params(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_single_bit_corruption() {
        let bytes = params_to_bytes(&sample_params()).unwrap();
        // Flip one bit in the middle of a tensor payload — structurally
        // the file still parses, so only the checksums can catch it.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        let err = load_params_from_bytes(&corrupt).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn duplicate_entry_names_are_a_format_error() {
        // Hand-build a v2 file with the same entry twice; the loader must
        // reject it rather than panic in Params::insert.
        let mut entry = Enc::new();
        entry.put_str("w").unwrap();
        entry.put_tensor(&Tensor::ones(&[2])).unwrap();
        let entry_crc = crc32(entry.bytes());
        let mut enc = Enc::new();
        enc.put_bytes(MAGIC);
        enc.put_u32(2);
        enc.put_u32(2);
        for _ in 0..2 {
            enc.put_bytes(entry.bytes());
            enc.put_u32(entry_crc);
        }
        let crc = crc32(enc.bytes());
        enc.put_u32(crc);
        let err = load_params_from_bytes(&enc.into_bytes()).unwrap_err();
        assert!(
            matches!(&err, CheckpointError::Format(m) if m.contains("duplicate")),
            "{err}"
        );
    }

    #[test]
    fn unsupported_version_rejected() {
        // Version 1 is the legacy layout without checksums: entries
        // back to back, no entry or file CRC. It parsed structurally, so
        // a flipped payload bit went undetected; it is refused like any
        // other unknown version. Version 3 does not exist yet.
        let mut v1 = Enc::new();
        v1.put_bytes(MAGIC);
        v1.put_u32(1);
        v1.put_u32(1);
        v1.put_str("w").unwrap();
        v1.put_tensor(&Tensor::ones(&[2])).unwrap();
        let mut v3 = Enc::new();
        v3.put_bytes(MAGIC);
        v3.put_u32(3);
        v3.put_u32(0);
        for (version, bytes) in [(1, v1.into_bytes()), (3, v3.into_bytes())] {
            let err = load_params_from_bytes(&bytes).unwrap_err();
            let want = format!("unsupported version {version}");
            assert!(
                matches!(&err, CheckpointError::Format(m) if *m == want),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_params("/nonexistent/gndf.bin").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn injected_io_failure_preserves_the_previous_checkpoint() {
        // Regression for the pre-atomic writer, which opened the target
        // with File::create (truncating it) before writing: any failure
        // mid-write destroyed the previous checkpoint. Inject an I/O
        // error at every point of the save path and check the old file
        // survives byte-for-byte each time.
        let dir = std::env::temp_dir().join(format!("gndf-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.gndf");
        let old = sample_params();
        save_params(&old, &path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();

        let mut new = sample_params();
        new.get_mut("fc.w").map_inplace(|v| v + 1.0);

        let mut point = 1;
        loop {
            let spec = FaultSpec::parse(&format!("io-fail:save_params:{point}")).unwrap();
            let result = with_fault(spec, || save_params(&new, &path));
            match result {
                Err(CheckpointError::Io(e)) => {
                    assert!(e.to_string().contains("injected"), "{e}");
                    assert_eq!(
                        std::fs::read(&path).unwrap(),
                        old_bytes,
                        "old checkpoint damaged by a failure at I/O point {point}"
                    );
                    // No temp litter left behind.
                    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
                    point += 1;
                }
                Ok(()) => break, // past the last injection point
                Err(other) => panic!("unexpected error at point {point}: {other}"),
            }
        }
        assert!(point > 3, "expected several I/O points, saw {point}");
        // And the un-faulted save fully replaced the file.
        let loaded = load_params(&path).unwrap();
        assert_eq!(loaded.get("fc.w"), new.get("fc.w"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_fuzz_every_prefix_and_byte_flip_errors_never_panics() {
        // Totality sweep over the loader: every truncation prefix and
        // three bit-flip patterns at every byte offset must produce a
        // typed error, and never a panic. A small store keeps this
        // a few thousand cases.
        let mut p = Params::new();
        p.insert("a", Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]));
        p.insert("b", Tensor::from_vec(vec![3], vec![5.0, 6.0, 7.0]));
        let bytes = params_to_bytes(&p).unwrap();

        for end in 0..bytes.len() {
            let prefix = &bytes[..end];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                load_params_from_bytes(prefix).err()
            }));
            let err = result.unwrap_or_else(|_| panic!("panicked on {end}-byte prefix"));
            assert!(err.is_some(), "accepted a {end}-byte truncation");
        }

        for offset in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutated = bytes.clone();
                mutated[offset] ^= mask;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    load_params_from_bytes(&mutated).err()
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
}
