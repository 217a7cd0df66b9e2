//! Micro-benchmarks: Figure 4 (cryptographic operation cost) and
//! Figure 6 (block-size sweep).

use pe_client::workload::WorkloadGen;
use pe_core::{
    DeltaTransformer, DocumentKey, IncrementalCipherDoc, Mode, RecbDocument, RpcDocument,
    SchemeParams,
};
use pe_crypto::CtrDrbg;
use pe_delta::{diff_bytes, Delta, DeltaOp};

use crate::timing::timed;

fn bench_key() -> DocumentKey {
    DocumentKey::derive("bench-password", &[0x77; 16], 100)
}

fn make_doc(
    mode: Mode,
    b: usize,
    text: &[u8],
    seed: u64,
) -> Box<dyn IncrementalCipherDoc + Send> {
    let key = bench_key();
    let rng = CtrDrbg::from_seed(seed);
    match mode {
        Mode::Recb => {
            Box::new(RecbDocument::create(&key, SchemeParams::recb(b), text, rng).unwrap())
        }
        Mode::Rpc => Box::new(RpcDocument::create(&key, SchemeParams::rpc(b), text, rng).unwrap()),
    }
}

/// Number of plaintext characters a delta touches (deleted + inserted),
/// used to normalize incremental-update cost.
pub fn changed_chars(delta: &Delta) -> usize {
    delta
        .ops()
        .iter()
        .map(|op| match op {
            DeltaOp::Insert(s) => s.len(),
            DeltaOp::Delete(n) => *n,
            DeltaOp::Retain(_) => 0,
        })
        .sum::<usize>()
        .max(1)
}

/// Figure 4 results: per-character times for the three cryptographic
/// operations, plus whole-document encryption throughput.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Result {
    /// Number of `(D, D′)` test pairs run.
    pub tests: usize,
    /// Whole-document encryption, ms per character of `D`.
    pub encrypt_ms_per_char: f64,
    /// Whole-document decryption, ms per character of `D′`.
    pub decrypt_ms_per_char: f64,
    /// Delta transformation, ms per changed character.
    pub incremental_ms_per_char: f64,
    /// Encryption throughput in kB of plaintext per second.
    pub throughput_kb_per_s: f64,
}

/// Runs the §VII-B micro-benchmark: `tests` random `(D, D′)` pairs with
/// lengths uniform in 100..=10000; for each pair the delta `D → D′` is
/// derived and the three operations are timed. The paper reports RPC
/// mode ([`Mode::Rpc`]); rECB is also supported for comparison.
pub fn fig4(mode: Mode, b: usize, tests: usize, seed: u64) -> Fig4Result {
    let mut workload = WorkloadGen::new(seed);
    let mut encrypt_total = 0.0f64;
    let mut encrypt_chars = 0usize;
    let mut decrypt_total = 0.0f64;
    let mut decrypt_chars = 0usize;
    let mut inc_total = 0.0f64;
    let mut inc_chars = 0usize;
    for test in 0..tests {
        let (d, d2) = workload.micro_pair();
        let delta = diff_bytes(&d, &d2);
        let (doc, enc_time) = timed(|| make_doc(mode, b, d.as_bytes(), seed ^ test as u64));
        encrypt_total += enc_time.as_secs_f64();
        encrypt_chars += d.len();
        let mut transformer = DeltaTransformer::new(doc);
        let (result, inc_time) = timed(|| transformer.transform(&delta));
        result.expect("derived delta applies");
        inc_total += inc_time.as_secs_f64();
        inc_chars += changed_chars(&delta);
        let (plaintext, dec_time) = timed(|| transformer.doc().decrypt().expect("decrypts"));
        assert_eq!(plaintext, d2.as_bytes(), "transform must produce D′");
        decrypt_total += dec_time.as_secs_f64();
        decrypt_chars += d2.len();
    }
    Fig4Result {
        tests,
        encrypt_ms_per_char: encrypt_total * 1e3 / encrypt_chars.max(1) as f64,
        decrypt_ms_per_char: decrypt_total * 1e3 / decrypt_chars.max(1) as f64,
        incremental_ms_per_char: inc_total * 1e3 / inc_chars.max(1) as f64,
        throughput_kb_per_s: encrypt_chars as f64 / 1000.0 / encrypt_total.max(1e-12),
    }
}

/// One row of the Figure 6 block-size sweep.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Characters per block (1..=8).
    pub block_size: usize,
    /// Whole-document encryption, µs per character (Fig. 6a).
    pub whole_doc_us_per_char: f64,
    /// Incremental update, µs per changed character (Fig. 6b).
    pub incremental_us_per_char: f64,
}

/// Runs the §VII-D block-size sweep: rECB mode, original documents fixed
/// at `doc_len` (the paper uses 10000) characters, `tests` random deltas
/// per block size.
pub fn fig6(doc_len: usize, tests: usize, seed: u64) -> Vec<Fig6Row> {
    let mut rows = Vec::new();
    for b in 1..=8usize {
        let mut workload = WorkloadGen::new(seed ^ (b as u64) << 32);
        let mut enc_total = 0.0f64;
        let mut enc_chars = 0usize;
        let mut inc_total = 0.0f64;
        let mut inc_chars = 0usize;
        for test in 0..tests {
            let d = workload.random_string(doc_len);
            let d2_len = workload.length(100, 10_000);
            let d2 = workload.random_string(d2_len);
            let delta = diff_bytes(&d, &d2);
            let (doc, enc_time) =
                timed(|| make_doc(Mode::Recb, b, d.as_bytes(), seed ^ test as u64));
            enc_total += enc_time.as_secs_f64();
            enc_chars += d.len();
            let mut transformer = DeltaTransformer::new(doc);
            let (result, inc_time) = timed(|| transformer.transform(&delta));
            result.expect("derived delta applies");
            inc_total += inc_time.as_secs_f64();
            inc_chars += changed_chars(&delta);
        }
        rows.push(Fig6Row {
            block_size: b,
            whole_doc_us_per_char: enc_total * 1e6 / enc_chars.max(1) as f64,
            incremental_us_per_char: inc_total * 1e6 / inc_chars.max(1) as f64,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_smoke_produces_positive_times() {
        // Tiny run: correctness of plumbing, not timing quality.
        let result = fig4(Mode::Rpc, 1, 2, 42);
        assert_eq!(result.tests, 2);
        assert!(result.encrypt_ms_per_char > 0.0);
        assert!(result.decrypt_ms_per_char > 0.0);
        assert!(result.incremental_ms_per_char > 0.0);
        assert!(result.throughput_kb_per_s > 0.0);
    }

    #[test]
    fn fig4_recb_mode_also_runs() {
        let result = fig4(Mode::Recb, 8, 2, 43);
        assert!(result.encrypt_ms_per_char > 0.0);
    }

    #[test]
    fn fig6_covers_all_block_sizes() {
        let rows = fig6(600, 1, 44);
        assert_eq!(rows.len(), 8);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.block_size, i + 1);
            assert!(row.whole_doc_us_per_char > 0.0);
            assert!(row.incremental_us_per_char > 0.0);
        }
    }

    #[test]
    fn changed_chars_counts_edits() {
        let delta = Delta::parse("=5\t-3\t+ab").unwrap();
        assert_eq!(changed_chars(&delta), 5);
        assert_eq!(changed_chars(&Delta::new()), 1, "floor of 1 avoids division by zero");
    }
}
