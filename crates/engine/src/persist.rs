//! Opt-in disk persistence for solved `P_gc` components.
//!
//! The gate-cancellation matrix `P_gc` — the min-cost-flow solve that
//! dominates compile time (§6.6, Table 2) — is a pure function of the
//! (dominant-term-split) Hamiltonian, and the Hamiltonian fingerprint is
//! stable across processes and platforms. Spilling each solved matrix to a
//! file keyed by that fingerprint therefore makes repeated benchmark runs
//! (CI, figure regeneration) nearly free: a fresh process loads the matrix
//! instead of re-solving the flow model.
//!
//! # File format (version 5)
//!
//! One file per component, named `pgc-<fingerprint:016x>.mqsc`, all fields
//! little-endian:
//!
//! ```text
//! magic   4  b"MQSC"
//! version u32
//! fingerprint u64          -- hamiltonian_fingerprint of the stored H
//! num_qubits  u64
//! num_terms   u64
//! terms       num_terms ×  (coefficient f64 bits as u64,
//!                           num_qubits × PauliOp byte)
//! states      u64          -- matrix dimension (== num_terms)
//! rows        states² × f64 bits as u64
//! topology    u64          -- flow-network topology fingerprint
//! num_nodes   u64          -- real node count of the solved network
//! num_real    u64          -- real arc count
//! arc_states  (num_real + num_nodes) × u8
//! arc_flows   (num_real + num_nodes) × f64 bits as u64
//! checksum    u64          -- FNV-1a 64 of every byte before it
//! ```
//!
//! The basis section stores the network simplex's optimal spanning basis
//! next to the matrix, so a later process warm-starts the `P_rp`
//! perturbation solves from the loaded basis exactly as the original
//! process did.
//!
//! # Safety against collisions and stale files
//!
//! A load is only accepted if (0) the checksum matches, (1) magic,
//! version, and fingerprint match,
//! (2) the *full Hamiltonian* stored in the file is equal — term by term,
//! exact coefficient bits — to the Hamiltonian being requested, and (3) the
//! matrix passes [`TransitionMatrix::new`]'s row-stochasticity validation.
//! A 64-bit fingerprint collision or a stale/corrupt file therefore
//! degrades to a cache miss (the component is re-solved), never a wrong
//! matrix. The final combined transition matrix is additionally re-checked
//! against both Theorem 4.1 conditions by the regular build path, loaded
//! component or not.
//!
//! Writes go through a process-unique temporary file followed by a rename,
//! so concurrent processes sharing one cache directory never observe a
//! torn file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use marqsim_core::SpanningBasis;
use marqsim_markov::TransitionMatrix;
use marqsim_pauli::{Hamiltonian, PauliOp, PauliString, Term};

use crate::cache::Fnv1a;

const MAGIC: &[u8; 4] = b"MQSC";
/// Format/provenance version. Bumped to 2 with the pluggable-solver
/// redesign: the default backend's non-negative fast path may select a
/// different (equally optimal) flow than the pre-redesign solver did on
/// degenerate instances, so files solved by the old code must not mix with
/// fresh solves — the version gate degrades them to a one-time re-solve.
/// Bumped to 3 with warm-start re-solves: version-3 files append the
/// solve's spanning basis (see the module docs), and version-2 files are
/// re-solved rather than loaded so a cached matrix is never paired with a
/// missing basis (which would make warm-started `P_rp` samples depend on
/// which process solved `P_gc`).
/// Bumped to 4 when the network simplex became the only backend and every
/// component moved into the one `pgc-<fp>.mqsc` name: a version-3 file at
/// that name was solved by successive shortest paths, which may pick a
/// different (equally optimal) flow and stored no basis, so it is
/// re-solved rather than loaded as a simplex result. Version 4 also drops
/// the version-3 basis-present flag byte: every simplex solve exports a
/// basis, so the basis section is mandatory.
/// Bumped to 5 with the trailing checksum. Without it a flipped low
/// mantissa bit passed every semantic check: a basis flow stayed within
/// the solver's conservation tolerance and warm-started to a slightly
/// infeasible optimum, and a matrix entry stayed within the stochasticity
/// tolerance. Now any corruption is a miss.
const VERSION: u32 = 5;

/// Path of the component file for a fingerprint inside `dir`.
pub(crate) fn component_path(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("pgc-{fingerprint:016x}.mqsc"))
}

/// FNV-1a 64 over `bytes`: the file's trailing checksum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    for &byte in bytes {
        hash.write_u8(byte);
    }
    hash.finish()
}

/// Serializes `(ham, matrix, basis)` into the version-5 binary format.
fn encode(
    fingerprint: u64,
    ham: &Hamiltonian,
    matrix: &TransitionMatrix,
    basis: &SpanningBasis,
) -> Vec<u8> {
    let n = matrix.num_states();
    let arcs = basis.flows().len();
    let mut out =
        Vec::with_capacity(4 + 4 + 8 * 3 + ham.num_terms() * 16 + n * n * 8 + 8 * 4 + arcs * 9);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(ham.num_qubits() as u64).to_le_bytes());
    out.extend_from_slice(&(ham.num_terms() as u64).to_le_bytes());
    for term in ham.terms() {
        out.extend_from_slice(&term.coefficient.to_bits().to_le_bytes());
        for op in term.string.ops() {
            out.push(*op as u8);
        }
    }
    out.extend_from_slice(&(n as u64).to_le_bytes());
    for row in matrix.rows() {
        for &p in row {
            out.extend_from_slice(&p.to_bits().to_le_bytes());
        }
    }
    out.extend_from_slice(&basis.topology().to_le_bytes());
    out.extend_from_slice(&(basis.num_nodes() as u64).to_le_bytes());
    out.extend_from_slice(&(basis.num_real_arcs() as u64).to_le_bytes());
    out.extend_from_slice(&basis.state_bytes());
    for &flow in basis.flows() {
        out.extend_from_slice(&flow.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&checksum(&out).to_le_bytes());
    out
}

/// Writes the solved component for `fingerprint` to `dir`, creating the
/// directory if needed. Atomic against concurrent readers and writers
/// (temp file + rename).
///
/// # Errors
///
/// Propagates filesystem errors; the caller treats them as "persistence
/// unavailable", never as a compile failure.
pub(crate) fn save_component(
    dir: &Path,
    fingerprint: u64,
    ham: &Hamiltonian,
    matrix: &TransitionMatrix,
    basis: &SpanningBasis,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let bytes = encode(fingerprint, ham, matrix, basis);
    // Unique per call, not just per process: concurrent misses on one key
    // may both solve and both save (see the cache docs), and they must not
    // interleave writes through a shared temp path.
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = dir.join(format!(
        "pgc-{fingerprint:016x}.tmp.{}.{seq}",
        std::process::id()
    ));
    fs::write(&tmp, &bytes)?;
    let result = fs::rename(&tmp, component_path(dir, fingerprint));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Loads the component for `fingerprint` from `dir`,
/// returning `None` — a plain cache miss — unless every validation
/// described in the module docs passes against `expected`. The second
/// element is the persisted spanning basis.
pub(crate) fn load_component(
    dir: &Path,
    fingerprint: u64,
    expected: &Hamiltonian,
) -> Option<(TransitionMatrix, SpanningBasis)> {
    let bytes = fs::read(component_path(dir, fingerprint)).ok()?;
    decode(&bytes, fingerprint, expected)
}

fn decode(
    bytes: &[u8],
    fingerprint: u64,
    expected: &Hamiltonian,
) -> Option<(TransitionMatrix, SpanningBasis)> {
    let (bytes, trailer) = bytes.split_at(bytes.len().checked_sub(8)?);
    if u64::from_le_bytes(trailer.try_into().ok()?) != checksum(bytes) {
        return None;
    }
    let mut cursor = Cursor { bytes, pos: 0 };
    if cursor.take(4)? != MAGIC {
        return None;
    }
    if cursor.u32()? != VERSION {
        return None;
    }
    if cursor.u64()? != fingerprint {
        return None;
    }
    let num_qubits = cursor.u64()? as usize;
    let num_terms = cursor.u64()? as usize;
    // The expected Hamiltonian is in hand, so pin the header to it before
    // allocating anything: a corrupt ~40-byte file must not be able to
    // request a multi-hundred-MB buffer.
    if num_qubits != expected.num_qubits() || num_terms != expected.num_terms() {
        return None;
    }
    let mut terms = Vec::with_capacity(num_terms);
    for _ in 0..num_terms {
        let coefficient = f64::from_bits(cursor.u64()?);
        let mut ops = Vec::with_capacity(num_qubits);
        for &byte in cursor.take(num_qubits)? {
            ops.push(PauliOp::from_bits(byte & 0b10 != 0, byte & 0b01 != 0));
            if byte > 0b11 {
                return None;
            }
        }
        terms.push(Term::new(coefficient, PauliString::from_ops(ops)));
    }
    let stored = Hamiltonian::new(terms).ok()?;
    if stored != *expected {
        // Fingerprint collision or stale file: fall back to solving.
        return None;
    }
    let n = cursor.u64()? as usize;
    if n != expected.num_terms() {
        return None;
    }
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(f64::from_bits(cursor.u64()?));
        }
        rows.push(row);
    }
    let topology = cursor.u64()?;
    let num_nodes = cursor.u64()? as usize;
    let num_real = cursor.u64()? as usize;
    let total = num_real.checked_add(num_nodes)?;
    // `take` bounds `total` against the remaining bytes before any
    // allocation, mirroring the header guard above.
    let state_bytes = cursor.take(total)?;
    let mut flows = Vec::with_capacity(total);
    for _ in 0..total {
        flows.push(f64::from_bits(cursor.u64()?));
    }
    let basis = SpanningBasis::from_raw(topology, num_nodes, num_real, state_bytes, flows)?;
    if cursor.pos != bytes.len() {
        return None;
    }
    Some((TransitionMatrix::new(rows).ok()?, basis))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::hamiltonian_fingerprint;
    use marqsim_core::gate_cancel::gate_cancellation_matrix_with_basis;

    fn ham() -> Hamiltonian {
        Hamiltonian::parse("1.0 IIIZ + 0.5 IIZZ + 0.4 XXYY + 0.1 ZXZY").unwrap()
    }

    /// Byte length of the basis section: three u64 headers, one state
    /// byte and one f64 flow per arc. The 8-byte checksum follows it.
    fn basis_section_len(basis: &SpanningBasis) -> usize {
        8 * 3 + 9 * (basis.num_real_arcs() + basis.num_nodes())
    }

    /// Recomputes the checksum of a deliberately edited file, so the edit
    /// reaches the semantic checks behind it.
    fn reseal(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("marqsim-persist-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_restores_the_exact_matrix() {
        let dir = temp_dir("roundtrip");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        save_component(&dir, fp, &ham, &matrix, &basis).unwrap();
        let (loaded, _) = load_component(&dir, fp, &ham).expect("valid file loads");
        assert_eq!(loaded, matrix, "bit-identical rows");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_restores_the_spanning_basis() {
        let dir = temp_dir("basis-roundtrip");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        save_component(&dir, fp, &ham, &matrix, &basis).unwrap();
        let (loaded, loaded_basis) = load_component(&dir, fp, &ham).expect("valid file loads");
        assert_eq!(loaded, matrix, "bit-identical rows");
        assert_eq!(loaded_basis.topology(), basis.topology());
        assert_eq!(loaded_basis.num_nodes(), basis.num_nodes());
        assert_eq!(loaded_basis.num_real_arcs(), basis.num_real_arcs());
        assert_eq!(loaded_basis.state_bytes(), basis.state_bytes());
        assert_eq!(loaded_basis.flows(), basis.flows());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_miss() {
        let dir = temp_dir("missing");
        assert!(load_component(&dir, 1234, &ham()).is_none());
    }

    #[test]
    fn corrupt_or_truncated_files_are_rejected() {
        let dir = temp_dir("corrupt");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        save_component(&dir, fp, &ham, &matrix, &basis).unwrap();
        let path = component_path(&dir, fp);
        let good = fs::read(&path).unwrap();

        // Truncation anywhere must be rejected, as must trailing garbage
        // and a flipped magic byte.
        fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(load_component(&dir, fp, &ham).is_none(), "truncated");
        let mut extended = good.clone();
        extended.push(0);
        fs::write(&path, &extended).unwrap();
        assert!(load_component(&dir, fp, &ham).is_none(), "trailing bytes");
        let mut flipped = good.clone();
        flipped[0] ^= 0xff;
        fs::write(&path, &flipped).unwrap();
        assert!(load_component(&dir, fp, &ham).is_none(), "bad magic");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stale_file_for_another_hamiltonian_is_rejected() {
        // Simulate a 64-bit fingerprint collision / stale rename: the file
        // sits at the fingerprint path of `other`, but stores `ham`. The
        // full-equality check must refuse it.
        let dir = temp_dir("stale");
        let ham = ham();
        let other = Hamiltonian::parse("0.6 XZII + 0.4 ZYII + 0.3 XXII + 0.1 IIZZ").unwrap();
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        let other_fp = hamiltonian_fingerprint(&other);
        save_component(&dir, other_fp, &ham, &matrix, &basis).unwrap();
        assert!(
            load_component(&dir, other_fp, &other).is_none(),
            "stored Hamiltonian differs from the requested one"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_matrix_rows_fail_stochasticity_validation() {
        let dir = temp_dir("tampered");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        save_component(&dir, fp, &ham, &matrix, &basis).unwrap();
        let path = component_path(&dir, fp);
        let mut bytes = fs::read(&path).unwrap();
        // Overwrite the last matrix entry with 7.0 (the matrix rows end
        // where the basis section starts): the row no longer sums to one,
        // so TransitionMatrix::new must reject the load.
        let last = bytes.len() - 8 - basis_section_len(&basis) - 8;
        bytes[last..last + 8].copy_from_slice(&7.0f64.to_bits().to_le_bytes());
        reseal(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        assert!(load_component(&dir, fp, &ham).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_versions_are_rejected() {
        // A version-2 file has no basis section; accepting it would pair a
        // cached matrix with a missing basis and make warm starts depend on
        // which process solved the component. The version gate must degrade
        // it to a re-solve.
        let dir = temp_dir("old-version");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        save_component(&dir, fp, &ham, &matrix, &basis).unwrap();
        let path = component_path(&dir, fp);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        reseal(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        assert!(load_component(&dir, fp, &ham).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_3_files_are_a_cache_miss() {
        // Version 3 stored successive-shortest-path components (no basis)
        // under the same file name. Loading one would serve an SSP flow as
        // a simplex result: disk reloads would stop matching cold solves
        // bit for bit, and the entry would carry no warm-start basis.
        let dir = temp_dir("version-3");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        save_component(&dir, fp, &ham, &matrix, &basis).unwrap();
        let path = component_path(&dir, fp);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        reseal(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        assert!(load_component(&dir, fp, &ham).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_basis_sections_are_rejected() {
        let dir = temp_dir("corrupt-basis");
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        save_component(&dir, fp, &ham, &matrix, &basis).unwrap();
        let path = component_path(&dir, fp);
        let good = fs::read(&path).unwrap();
        let section = good.len() - 8 - basis_section_len(&basis);
        let num_nodes_at = section + 8;
        assert_eq!(
            good[num_nodes_at..num_nodes_at + 8],
            (basis.num_nodes() as u64).to_le_bytes(),
            "section offset arithmetic"
        );

        // A node count that disagrees with the section length must be
        // rejected outright…
        let mut bad_count = good.clone();
        bad_count[num_nodes_at..num_nodes_at + 8]
            .copy_from_slice(&(basis.num_nodes() as u64 + 1).to_le_bytes());
        reseal(&mut bad_count);
        fs::write(&path, &bad_count).unwrap();
        assert!(load_component(&dir, fp, &ham).is_none());

        // …and so must an invalid arc-state byte inside the section.
        let mut bad_state = good.clone();
        bad_state[section + 8 * 3] = 0xff;
        reseal(&mut bad_state);
        fs::write(&path, &bad_state).unwrap();
        assert!(load_component(&dir, fp, &ham).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_bit_anywhere_is_a_miss() {
        // A low mantissa bit of a basis flow passes the solver's
        // conservation tolerance and of a matrix entry the stochasticity
        // tolerance; only the checksum catches either.
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        let good = encode(fp, &ham, &matrix, &basis);
        assert!(decode(&good, fp, &ham).is_some());
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[at] ^= 1 << bit;
                assert!(
                    decode(&flipped, fp, &ham).is_none(),
                    "bit {bit} flipped at {at}"
                );
            }
        }
    }

    /// A mangled copy of `good`: a valid prefix followed by arbitrary
    /// bytes (prefix 0 is arbitrary bytes), a truncation, one byte
    /// changed anywhere, or now and then `good` itself.
    fn mangled(g: &mut quickprop::Gen, good: &[u8]) -> Vec<u8> {
        match g.usize_in(0..3) {
            0 => {
                let mut bytes = good[..g.usize_in(0..good.len())].to_vec();
                bytes.extend(g.vec_of(0..64, |g| g.u64() as u8));
                bytes
            }
            1 if g.bool(0.2) => good.to_vec(),
            1 => good[..g.usize_in(0..good.len())].to_vec(),
            _ => {
                let mut bytes = good.to_vec();
                let at = g.usize_in(0..bytes.len());
                bytes[at] = g.u64() as u8;
                bytes
            }
        }
    }

    #[test]
    fn decode_is_total_behind_a_valid_checksum() {
        use quickprop::{check, Config};

        // Re-sealed, every mangled input gets past the checksum, so the
        // section parsers and `SpanningBasis::from_raw` see the garbage.
        // They may accept or refuse it, but must return.
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let (matrix, basis) = gate_cancellation_matrix_with_basis(&ham).unwrap();
        let good = encode(fp, &ham, &matrix, &basis);
        check(
            "persist decode is total",
            Config::default().with_cases(512).with_seed(0xDEC0DE),
            |g| {
                let mut bytes = mangled(g, &good);
                if bytes.len() >= 8 {
                    reseal(&mut bytes);
                }
                bytes
            },
            |bytes| {
                let _ = decode(bytes, fp, &ham);
                Ok(())
            },
        );
    }

    #[test]
    fn only_the_intact_file_decodes_and_its_basis_reaches_the_cold_optimum() {
        use marqsim_core::gate_cancel::{cnot_cost_matrix, matrix_from_costs};
        use quickprop::{check, Config};

        // Without a re-seal, the checksum turns away every change: a
        // changed basis flow can pass the semantic checks and warm-start
        // to an infeasible optimum, so nothing but the saved file may load.
        let ham = ham();
        let fp = hamiltonian_fingerprint(&ham);
        let costs = cnot_cost_matrix(&ham);
        let cold = matrix_from_costs(&ham, &costs, None).unwrap();
        let good = encode(fp, &ham, &cold.matrix, &cold.basis);
        check(
            "persist decode accepts only the intact file",
            Config::default().with_cases(256).with_seed(0xDEC0DE),
            |g| mangled(g, &good),
            |bytes| {
                let Some((_, loaded)) = decode(bytes, fp, &ham) else {
                    return Ok(());
                };
                if *bytes != good {
                    return Err("a changed file decoded".to_string());
                }
                let warm =
                    matrix_from_costs(&ham, &costs, Some(&loaded)).map_err(|e| e.to_string())?;
                if (warm.cost - cold.cost).abs() > 1e-9 {
                    return Err(format!(
                        "warm start from the decoded basis reached {}, a cold solve {}",
                        warm.cost, cold.cost
                    ));
                }
                Ok(())
            },
        );
    }
}
