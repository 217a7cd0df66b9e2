//! Durable-store benchmark: append throughput per fsync policy, and
//! crash-recovery (WAL replay) time versus log size.
//!
//! Usage: `cargo run -p pe-bench --bin store_recovery --release -- \
//!     [--smoke] [--out FILE]`
//!
//! Writes the JSON report to `BENCH_store.json` (or `--out FILE`) and
//! prints Markdown tables. `--smoke` runs tiny sizes for CI.

use pe_bench::report::markdown_table;
use pe_bench::storebench::{
    append_sweep, group_commit_sweep, render_json, replay_sweep, sharded_replay_sweep,
    PAYLOAD_BYTES,
};
use pe_store::FsyncPolicy;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_store.json", String::as_str);

    let policies =
        [FsyncPolicy::Always, FsyncPolicy::EveryN(64), FsyncPolicy::Never];
    let (append_records, replay_sizes): (u64, &[u64]) =
        if smoke { (200, &[200, 1_000]) } else { (5_000, &[1_000, 10_000, 100_000]) };
    let group_shards = 4;
    let (group_writers, group_per_writer): (&[usize], u64) =
        if smoke { (&[1, 4], 64) } else { (&[1, 2, 4, 8, 16, 32, 64], 1_000) };
    let sharded_cases: &[(u64, usize)] =
        if smoke { &[(500, 1), (500, 4)] } else { &[(100_000, 1), (100_000, 8)] };

    println!("# Durable store — append throughput and crash-recovery replay\n");
    println!(
        "{append_records} appends of {PAYLOAD_BYTES}-byte payloads per policy; \
         replay = cold single-shard ShardedLogStore::open over the whole WAL.\n"
    );

    let appends = append_sweep(&policies, append_records);
    let table: Vec<Vec<String>> = appends
        .iter()
        .map(|row| {
            vec![
                row.policy.clone(),
                format!("{}", row.records),
                format!("{:.3} s", row.wall_s),
                format!("{:.0}", row.appends_per_s),
                format!("{:.2}", row.mb_per_s),
                format!("{}", row.fsyncs),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["fsync", "records", "wall", "appends/s", "MB/s", "fsyncs"],
            &table
        )
    );

    println!(
        "\nGroup commit: {group_per_writer} appends per writer over a \
         {group_shards}-shard store, fsync=always.\n"
    );
    let groups =
        group_commit_sweep(group_writers, group_shards, group_per_writer, FsyncPolicy::Always);
    let table: Vec<Vec<String>> = groups
        .iter()
        .map(|row| {
            vec![
                format!("{}", row.writers),
                format!("{}", row.records),
                format!("{:.3} s", row.wall_s),
                format!("{:.0}", row.appends_per_s),
                format!("{}", row.fsyncs),
                format!("{}", row.fsyncs_saved),
                format!("{}", row.max_batch),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["writers", "records", "wall", "appends/s", "fsyncs", "saved", "max batch"],
            &table
        )
    );

    let replays = replay_sweep(replay_sizes);
    let table: Vec<Vec<String>> = replays
        .iter()
        .map(|row| {
            vec![
                format!("{}", row.records),
                format!("{:.1} KiB", row.log_bytes as f64 / 1024.0),
                format!("{:.4} s", row.open_wall_s),
                format!("{:.0}", row.replay_per_s),
                format!("{}", row.docs),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["records", "log size", "open", "replayed/s", "docs"],
            &table
        )
    );

    println!("\nSharded recovery: one document per record, cold ShardedLogStore::open.\n");
    let sharded = sharded_replay_sweep(sharded_cases);
    let table: Vec<Vec<String>> = sharded
        .iter()
        .map(|row| {
            vec![
                format!("{}", row.records),
                format!("{}", row.shards),
                format!("{:.1} KiB", row.log_bytes as f64 / 1024.0),
                format!("{:.4} s", row.open_wall_s),
                format!("{:.0}", row.replay_per_s),
                format!("{}", row.docs),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(
            &["records", "shards", "log size", "open", "replayed/s", "docs"],
            &table
        )
    );

    let json = render_json(&appends, &groups, &replays, &sharded);
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("error: could not write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", pe_bench::report::observability_section());
}
