//! Crypto fast-path throughput: scalar baseline vs the batch engine on
//! full-document encrypt+decrypt, once per AES backend, same run, same
//! machine; plus raw block-cipher throughput per AES backend and SHA-256
//! throughput per compression engine.
//!
//! Usage: `cargo run -p pe-bench --bin crypto_throughput --release -- \
//!     [--smoke] [--out FILE] [--detect]`
//!
//! Writes the JSON report to `BENCH_crypto.json` (or `--out FILE`) and
//! prints a Markdown table. `--smoke` runs tiny sizes with one rep for
//! CI. `--detect` prints whether this CPU supports AES-NI and exits with
//! status 0 (supported) or 1 (not) — used by `scripts/ci.sh` to skip the
//! forced-`aesni` test pass gracefully on hardware without it.

use pe_bench::crypto_bench::{
    crypto_throughput_matrix, raw_cipher_throughput, render_json, sha256_throughput,
};
use pe_bench::report::markdown_table;
use pe_crypto::AesBackend;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--detect") {
        let supported = AesBackend::aesni_supported();
        println!("aesni_supported={supported}");
        std::process::exit(if supported { 0 } else { 1 });
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_crypto.json", String::as_str);

    let (sizes, reps): (&[usize], usize) = if smoke {
        (&[1024, 4096], 1)
    } else {
        (&[4096, 16 * 1024, 64 * 1024, 256 * 1024], 9)
    };

    // Fallback rows (scalar, table) are always reported; the aesni rows
    // appear when the CPU can run them.
    let mut backends = vec![AesBackend::Scalar, AesBackend::Table];
    if AesBackend::aesni_supported() {
        backends.push(AesBackend::AesNi);
    }

    println!("# Crypto fast-path throughput — full-document encrypt+decrypt (rECB, b=8)\n");
    println!("Scalar = pre-fast-path byte-oriented AES, per-block loop, per-block allocation.");
    println!(
        "serialize / open = the Base32 wire codec of the fast-path document \
         (open parses and builds the skip list; it does not decrypt)."
    );
    println!(
        "Fast = batch seal/open engine, one row per AES backend \
         (best of {reps} reps; aesni supported: {}).\n",
        AesBackend::aesni_supported()
    );

    let rows = crypto_throughput_matrix(sizes, reps, 0xc0ffee, &backends);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            vec![
                format!("{} KiB", row.size_bytes / 1024),
                row.aes_backend.to_string(),
                format!("{:.3} ms", (row.scalar_encrypt_s + row.scalar_decrypt_s) * 1e3),
                format!("{:.3} ms", (row.fast_encrypt_s + row.fast_decrypt_s) * 1e3),
                format!("{:.3} ms", row.fast_serialize_s * 1e3),
                format!("{:.3} ms", row.fast_open_s * 1e3),
                format!("{:.1}x", row.encrypt_speedup()),
                format!("{:.1}x", row.decrypt_speedup()),
                format!("{:.1}x", row.roundtrip_speedup()),
                format!("{:.1}", row.fast_throughput_mib_s()),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &[
                "size",
                "backend",
                "scalar enc+dec",
                "fast enc+dec",
                "serialize",
                "open",
                "enc speedup",
                "dec speedup",
                "roundtrip speedup",
                "fast MiB/s"
            ],
            &table
        )
    );

    println!("## Raw block-cipher throughput (1 MiB bulk, no document machinery)\n");
    let cipher_rows = raw_cipher_throughput(&backends, reps);
    let table_row = cipher_rows.iter().find(|r| r.aes_backend == "table");
    let cipher_table: Vec<Vec<String>> = cipher_rows
        .iter()
        .map(|row| {
            let vs_table = table_row.map_or(f64::NAN, |t| {
                (row.encrypt_mib_s + row.decrypt_mib_s) / (t.encrypt_mib_s + t.decrypt_mib_s)
            });
            vec![
                row.aes_backend.to_string(),
                format!("{:.1}", row.encrypt_mib_s),
                format!("{:.1}", row.decrypt_mib_s),
                format!("{vs_table:.1}x"),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["backend", "enc MiB/s", "dec MiB/s", "vs table"], &cipher_table)
    );

    println!("## SHA-256 throughput (1 MiB one-shot digest)\n");
    let sha256_rows = sha256_throughput(reps);
    let sha256_table: Vec<Vec<String>> = sha256_rows
        .iter()
        .map(|row| vec![row.engine.to_string(), format!("{:.1}", row.mib_s)])
        .collect();
    println!("{}", markdown_table(&["engine", "MiB/s"], &sha256_table));

    let json = render_json(&rows, &cipher_rows, &sha256_rows, reps);
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", pe_bench::report::observability_section());
}
