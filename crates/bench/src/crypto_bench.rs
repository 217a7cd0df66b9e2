//! Crypto fast-path throughput: full-document encrypt+decrypt, scalar
//! baseline vs the T-table batch engine, measured **in the same run**.
//!
//! The baseline replays the pre-fast-path rECB full-document loop
//! exactly: owned per-chunk buffers, one byte-oriented
//! [`ScalarAes128`](pe_crypto::aes::reference::ScalarAes128) call per
//! block, a per-block position-searched insert into the vendored pre-PR
//! skip list ([`PreprSkipList`], whose nodes still heap-allocate their
//! towers), and — on decrypt — a per-ordinal skip-list search plus a
//! fresh `Vec` per opened block. The fast path is the shipping
//! [`RecbDocument`] `create`/`decrypt` pair, which packs all blocks
//! contiguously, runs the T-table cipher in one batch pass, and
//! bulk-appends the sealed blocks. Both sides draw identical nonce
//! values — the baseline through the vendored pre-PR
//! [`PreprCtrDrbg`](crate::prepr_drbg::PreprCtrDrbg), which pays one
//! scalar AES call per 16 keystream bytes just as the old generator did
//! — so the ratio isolates the cipher engine and the allocation
//! discipline.

use pe_core::{DocumentKey, IncrementalCipherDoc, RecbDocument, SchemeParams};
use pe_crypto::aes::reference::ScalarAes128;
use pe_crypto::aes::FORCE_BACKEND_ENV;
use pe_crypto::drbg::NonceSource;
use pe_crypto::sha256::{Sha256, Sha256Engine};
use pe_crypto::{AesBackend, BlockCipher, CtrDrbg};
use pe_indexlist::Weighted;

use crate::prepr_drbg::PreprCtrDrbg;
use crate::prepr_list::PreprSkipList;
use crate::timing::timed;

/// One measured document size.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Plaintext size in bytes.
    pub size_bytes: usize,
    /// AES backend the fast path ran on (`scalar`/`table`/`aesni`).
    pub aes_backend: &'static str,
    /// Scalar (pre-fast-path) full-document encrypt, seconds.
    pub scalar_encrypt_s: f64,
    /// Scalar full-document decrypt, seconds.
    pub scalar_decrypt_s: f64,
    /// Fast-path (`RecbDocument::create`) encrypt, seconds.
    pub fast_encrypt_s: f64,
    /// Fast-path (`RecbDocument::decrypt`) decrypt, seconds.
    pub fast_decrypt_s: f64,
    /// `serialize` of the document `fast_encrypt_s` built (the Base32
    /// record codec the server stores), seconds.
    pub fast_serialize_s: f64,
    /// `RecbDocument::open` of that serialization (record parse plus
    /// skip-list build, no decryption), seconds.
    pub fast_open_s: f64,
}

impl ThroughputRow {
    /// Encrypt speedup of the fast path over the scalar baseline.
    pub fn encrypt_speedup(&self) -> f64 {
        self.scalar_encrypt_s / self.fast_encrypt_s
    }

    /// Decrypt speedup of the fast path over the scalar baseline.
    pub fn decrypt_speedup(&self) -> f64 {
        self.scalar_decrypt_s / self.fast_decrypt_s
    }

    /// Combined encrypt+decrypt (roundtrip) speedup.
    pub fn roundtrip_speedup(&self) -> f64 {
        (self.scalar_encrypt_s + self.scalar_decrypt_s)
            / (self.fast_encrypt_s + self.fast_decrypt_s)
    }

    /// Fast-path roundtrip throughput in MiB/s.
    pub fn fast_throughput_mib_s(&self) -> f64 {
        let total = self.fast_encrypt_s + self.fast_decrypt_s;
        (2.0 * self.size_bytes as f64) / (1024.0 * 1024.0) / total
    }
}

/// Raw block-cipher throughput for one backend: `encrypt_blocks` /
/// `decrypt_blocks` over a contiguous 1 MiB buffer, no document
/// machinery. This is the layer the AES-NI acceptance criterion measures
/// — the document rows above it also carry skip-list and packing costs
/// that dilute the cipher win at large sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct CipherRow {
    /// AES backend measured.
    pub aes_backend: &'static str,
    /// Bulk encryption throughput, MiB/s.
    pub encrypt_mib_s: f64,
    /// Bulk decryption throughput, MiB/s.
    pub decrypt_mib_s: f64,
}

/// Measures raw [`BlockCipher::encrypt_blocks`] / `decrypt_blocks`
/// throughput per backend over a 1 MiB buffer (best of `reps`).
pub fn raw_cipher_throughput(backends: &[AesBackend], reps: usize) -> Vec<CipherRow> {
    let reps = reps.max(1);
    let key = [0x42u8; 16];
    let mut blocks = vec![[0u8; 16]; 65536]; // 1 MiB
    for (i, block) in blocks.iter_mut().enumerate() {
        block[0] = i as u8;
        block[1] = (i >> 8) as u8;
    }
    let mib = blocks.len() as f64 * 16.0 / (1024.0 * 1024.0);
    backends
        .iter()
        .map(|&backend| {
            let cipher = pe_crypto::Aes128::with_backend(&key, backend);
            let mut enc_s = f64::INFINITY;
            let mut dec_s = f64::INFINITY;
            for _ in 0..reps {
                let (_, e) = timed(|| cipher.encrypt_blocks(&mut blocks));
                let (_, d) = timed(|| cipher.decrypt_blocks(&mut blocks));
                enc_s = enc_s.min(e.as_secs_f64());
                dec_s = dec_s.min(d.as_secs_f64());
            }
            CipherRow {
                aes_backend: backend.name(),
                encrypt_mib_s: mib / enc_s,
                decrypt_mib_s: mib / dec_s,
            }
        })
        .collect()
}

/// SHA-256 throughput for one compression engine over a 1 MiB one-shot
/// digest — the shape of the server's `contentFromServerHash` over a
/// whole stored document.
#[derive(Debug, Clone, PartialEq)]
pub struct Sha256Row {
    /// Engine measured (`portable`/`shani`).
    pub engine: &'static str,
    /// Hashing throughput, MiB/s.
    pub mib_s: f64,
}

/// Measures SHA-256 throughput per runnable engine over a 1 MiB buffer
/// (best of `reps`). SHA-NI appears only when CPUID reports it.
pub fn sha256_throughput(reps: usize) -> Vec<Sha256Row> {
    let data: Vec<u8> = (0..1 << 20).map(|i: u32| (i * 31 + i / 7) as u8).collect();
    let mut engines = vec![Sha256Engine::Portable];
    if Sha256Engine::shani_supported() {
        engines.push(Sha256Engine::ShaNi);
    }
    engines
        .into_iter()
        .map(|engine| {
            let mut best = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let (digest, t) = timed(|| {
                    let mut hasher = Sha256::with_engine(engine);
                    hasher.update(&data);
                    hasher.finalize()
                });
                std::hint::black_box(digest);
                best = best.min(t.as_secs_f64());
            }
            Sha256Row { engine: engine.name(), mib_s: 1.0 / best }
        })
        .collect()
}

/// A sealed block of the scalar baseline (tag byte + ciphertext), the
/// same information `RecbDocument` keeps per block.
#[derive(Debug, Clone)]
struct ScalarBlock(u8, [u8; 16]);

impl Weighted for ScalarBlock {
    fn weight(&self) -> usize {
        self.0 as usize
    }
}

/// The pre-fast-path rECB full-document encrypt: owned chunk buffers,
/// one scalar AES call per block, and one position-searched skip-list
/// insert per block (exactly what `create` did before the batch engine).
/// The nonce source is `dyn`-dispatched per block, mirroring the old
/// document structs' `Box<dyn NonceSource>` field.
fn scalar_encrypt(
    cipher: &ScalarAes128,
    r0: &[u8; 8],
    rng: &mut dyn NonceSource,
    text: &[u8],
    b: usize,
) -> PreprSkipList<ScalarBlock> {
    let pieces: Vec<Vec<u8>> = text.chunks(b).map(<[u8]>::to_vec).collect();
    let mut blocks = PreprSkipList::new();
    for (i, piece) in pieces.into_iter().enumerate() {
        let mut ri = [0u8; 8];
        rng.fill_bytes(&mut ri);
        let mut payload = [0u8; 8];
        payload[..piece.len()].copy_from_slice(&piece);
        let mut block = [0u8; 16];
        for k in 0..8 {
            block[k] = r0[k] ^ ri[k];
            block[8 + k] = ri[k] ^ payload[k];
        }
        cipher.encrypt_block(&mut block);
        pe_observe::static_counter!("bench.scalar.blocks_sealed").inc();
        blocks.insert(i, ScalarBlock(piece.len() as u8, block));
    }
    blocks
}

/// The pre-fast-path rECB full-document decrypt: the old `decrypt()`
/// called `open_block(ordinal)` per block, which re-searched the skip
/// list by ordinal (`get` is an `O(log n)` walk) and returned a fresh
/// `Vec` per block.
fn scalar_decrypt(
    cipher: &ScalarAes128,
    r0: &[u8; 8],
    blocks: &PreprSkipList<ScalarBlock>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(blocks.total_weight());
    for ordinal in 0..blocks.len_blocks() {
        let ScalarBlock(len, sealed) = blocks.get(ordinal).expect("ordinal in range");
        let mut block = *sealed;
        cipher.decrypt_block(&mut block);
        let mut data = Vec::with_capacity(*len as usize);
        for k in 0..*len as usize {
            let ri = block[k] ^ r0[k];
            data.push(block[8 + k] ^ ri);
        }
        pe_observe::static_counter!("bench.scalar.blocks_opened").inc();
        out.extend_from_slice(&data);
    }
    out
}

/// Deterministic printable plaintext of `len` bytes.
pub fn sample_text(len: usize) -> Vec<u8> {
    let alphabet = b"abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ,. ";
    (0..len).map(|i| alphabet[(i * 31 + i / 7) % alphabet.len()]).collect()
}

/// Measures full-document encrypt+decrypt at each size, plus the wire
/// codec (serialize and open) of the encrypted document, best of `reps`
/// repetitions per side (minimum wall time, which is the least noisy
/// estimator on a shared machine).
pub fn crypto_throughput(sizes: &[usize], reps: usize, seed: u64) -> Vec<ThroughputRow> {
    let reps = reps.max(1);
    let key = DocumentKey::derive("bench-password", &[0x42u8; 16], 100);
    let scalar = ScalarAes128::new(&[0x42u8; 16]);
    let r0 = [0x24u8; 8];
    sizes
        .iter()
        .map(|&size| {
            let text = sample_text(size);
            let mut scalar_encrypt_s = f64::INFINITY;
            let mut scalar_decrypt_s = f64::INFINITY;
            let mut fast_encrypt_s = f64::INFINITY;
            let mut fast_decrypt_s = f64::INFINITY;
            let mut fast_serialize_s = f64::INFINITY;
            let mut fast_open_s = f64::INFINITY;
            for rep in 0..reps {
                let rep_seed = seed ^ (rep as u64) << 32 ^ size as u64;
                let mut rng: Box<dyn NonceSource + Send> =
                    Box::new(PreprCtrDrbg::from_seed(rep_seed));
                let (blocks, enc) =
                    timed(|| scalar_encrypt(&scalar, &r0, &mut *rng, &text, 8));
                let (plain, dec) = timed(|| scalar_decrypt(&scalar, &r0, &blocks));
                assert_eq!(plain, text, "scalar roundtrip must hold");
                scalar_encrypt_s = scalar_encrypt_s.min(enc.as_secs_f64());
                scalar_decrypt_s = scalar_decrypt_s.min(dec.as_secs_f64());

                let (doc, enc) = timed(|| {
                    RecbDocument::create(
                        &key,
                        SchemeParams::recb(8),
                        &text,
                        CtrDrbg::from_seed(rep_seed),
                    )
                    .expect("create")
                });
                let (plain, dec) = timed(|| doc.decrypt().expect("decrypt"));
                assert_eq!(plain, text, "fast-path roundtrip must hold");
                fast_encrypt_s = fast_encrypt_s.min(enc.as_secs_f64());
                fast_decrypt_s = fast_decrypt_s.min(dec.as_secs_f64());

                let (wire, ser) = timed(|| doc.serialize());
                let rng = CtrDrbg::from_seed(rep_seed);
                let (reopened, open) =
                    timed(|| RecbDocument::open(&key, &wire, rng).expect("open"));
                assert_eq!(reopened.len(), doc.len(), "open must restore every block");
                fast_serialize_s = fast_serialize_s.min(ser.as_secs_f64());
                fast_open_s = fast_open_s.min(open.as_secs_f64());
            }
            ThroughputRow {
                size_bytes: size,
                aes_backend: AesBackend::select().name(),
                scalar_encrypt_s,
                scalar_decrypt_s,
                fast_encrypt_s,
                fast_decrypt_s,
                fast_serialize_s,
                fast_open_s,
            }
        })
        .collect()
}

/// Runs [`crypto_throughput`] once per forced backend, pooling the
/// scalar-baseline columns across backend runs (the baseline does not
/// depend on the dispatch layer, so every run is another sample of the
/// same quantity and the minimum is kept — old and new rows stay
/// comparable via the `aes_backend` field).
///
/// Forces each backend through [`FORCE_BACKEND_ENV`], which is
/// process-global: callers must be effectively single-threaded (the
/// bench binaries are). The previous value is restored on return.
pub fn crypto_throughput_matrix(
    sizes: &[usize],
    reps: usize,
    seed: u64,
    backends: &[AesBackend],
) -> Vec<ThroughputRow> {
    let saved = std::env::var(FORCE_BACKEND_ENV).ok();
    let mut baseline: Vec<ThroughputRow> = Vec::new();
    let mut rows = Vec::with_capacity(backends.len() * sizes.len());
    for &backend in backends {
        std::env::set_var(FORCE_BACKEND_ENV, backend.name());
        let mut batch = crypto_throughput(sizes, reps, seed);
        if baseline.is_empty() {
            baseline = batch.clone();
        } else {
            // Keep the cheapest scalar-baseline observation per size:
            // the baseline cipher never changes, so re-measurements are
            // just extra samples of the same quantity.
            for (row, base) in batch.iter_mut().zip(&baseline) {
                row.scalar_encrypt_s = row.scalar_encrypt_s.min(base.scalar_encrypt_s);
                row.scalar_decrypt_s = row.scalar_decrypt_s.min(base.scalar_decrypt_s);
            }
        }
        rows.extend(batch);
    }
    match saved {
        Some(value) => std::env::set_var(FORCE_BACKEND_ENV, value),
        None => std::env::remove_var(FORCE_BACKEND_ENV),
    }
    rows
}

/// Renders the rows as the JSON document committed as `BENCH_crypto.json`.
pub fn render_json(
    rows: &[ThroughputRow],
    cipher_rows: &[CipherRow],
    sha256_rows: &[Sha256Row],
    reps: usize,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"crypto_throughput\",\n");
    out.push_str("  \"mode\": \"recb\",\n");
    out.push_str("  \"block_size\": 8,\n");
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"aesni_supported\": {},\n", AesBackend::aesni_supported()));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"size_bytes\": {}, \"aes_backend\": \"{}\", \
             \"scalar_encrypt_s\": {:.6}, \"scalar_decrypt_s\": {:.6}, \
             \"fast_encrypt_s\": {:.6}, \"fast_decrypt_s\": {:.6}, \
             \"fast_serialize_s\": {:.9}, \"fast_open_s\": {:.9}, \"encrypt_speedup\": {:.2}, \
             \"decrypt_speedup\": {:.2}, \"roundtrip_speedup\": {:.2}, \
             \"fast_throughput_mib_s\": {:.2}}}{}\n",
            row.size_bytes,
            row.aes_backend,
            row.scalar_encrypt_s,
            row.scalar_decrypt_s,
            row.fast_encrypt_s,
            row.fast_decrypt_s,
            row.fast_serialize_s,
            row.fast_open_s,
            row.encrypt_speedup(),
            row.decrypt_speedup(),
            row.roundtrip_speedup(),
            row.fast_throughput_mib_s(),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"cipher_rows\": [\n");
    for (i, row) in cipher_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"aes_backend\": \"{}\", \"encrypt_mib_s\": {:.2}, \
             \"decrypt_mib_s\": {:.2}}}{}\n",
            row.aes_backend,
            row.encrypt_mib_s,
            row.decrypt_mib_s,
            if i + 1 == cipher_rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sha256_rows\": [\n");
    for (i, row) in sha256_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"mib_s\": {:.2}}}{}\n",
            row.engine,
            row.mib_s,
            if i + 1 == sha256_rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_path_matches_fast_path_plaintext() {
        // Not ciphertext — the scalar baseline uses its own key/r0 — but
        // both sides must roundtrip the same text.
        let rows = crypto_throughput(&[256, 1024], 1, 7);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.scalar_encrypt_s > 0.0 && row.fast_encrypt_s > 0.0);
            assert!(row.fast_serialize_s > 0.0 && row.fast_open_s > 0.0);
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let rows = crypto_throughput(&[512], 1, 9);
        let cipher_rows = raw_cipher_throughput(&[AesBackend::Table], 1);
        let sha256_rows = sha256_throughput(1);
        let json = render_json(&rows, &cipher_rows, &sha256_rows, 1);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"size_bytes\": 512"));
        assert!(json.contains("roundtrip_speedup"));
        assert!(json.contains("\"fast_serialize_s\": ") && json.contains("\"fast_open_s\": "));
        assert!(json.contains("\"aes_backend\": \""));
        assert!(json.contains("\"aesni_supported\": "));
        assert!(json.contains("\"cipher_rows\""));
        assert!(json.contains("\"encrypt_mib_s\""));
        assert!(json.contains("\"engine\": \"portable\""));
        // Balanced braces/brackets (a cheap structural check without a
        // JSON parser in the dependency set).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn sample_text_is_deterministic() {
        assert_eq!(sample_text(100), sample_text(100));
        assert_eq!(sample_text(100).len(), 100);
    }

    #[test]
    fn backend_matrix_labels_rows() {
        let backends = [AesBackend::Scalar, AesBackend::Table];
        let rows = crypto_throughput_matrix(&[256], 1, 3, &backends);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].aes_backend, "scalar");
        assert_eq!(rows[1].aes_backend, "table");
        // The pooled baseline columns are identical across backend rows.
        assert!(rows[1].scalar_encrypt_s <= rows[0].scalar_encrypt_s);
    }
}
