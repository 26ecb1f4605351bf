//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [--quick] [--seed N] [--timings-json PATH]
//!           [--store-dir PATH] [--checkpoint-every N] [section ...]
//! sections: table1 table2 table3 table4 table5 fig3 fig4
//!           casestudy errors emd ablations store parallel kernels
//!           serve shard;
//!           "all" (default) runs the paper artifacts (ablations must
//!           be requested explicitly)
//! ```
//!
//! `--timings-json` additionally writes the per-stage pipeline
//! wall-clock (local, extract+embed, cluster, classify, global), the
//! number of surface clusterings run (`clustered_surfaces`) and the
//! number of already-scanned tweets rescanned at CTrie version bumps
//! (`rescanned_tweets`) of every eval dataset to the given path
//! (conventionally `BENCH_pipeline.json`), forcing the pipeline runs
//! even when no requested section needs them.
//!
//! The `store` section (also forced by `--store-dir` or
//! `--timings-json`) streams the eval datasets through the durable
//! store and prints a bench row comparing WAL delta bytes per batch
//! against the full-snapshot size; with `--store-dir` the WAL and
//! snapshots land at the given path (so the store is
//! exercisable end-to-end and inspectable with `ngl recover`),
//! otherwise in a throwaway temp dir. `--checkpoint-every` sets the
//! snapshot cadence (default 8 batches). Past ~1k streamed tweets the
//! run *asserts* the delta stays below the snapshot size.
//!
//! The `parallel` section (also forced by `--timings-json`) runs the
//! persistent-executor tail benchmarks — per-call spawn overhead vs
//! the worker pool, and the giant-surface clustering tail at 1 vs 4
//! threads — and needs no trained experiment: invoked alone it skips
//! the experiment build entirely. The rows land in the timings JSON
//! under `"parallel"` (conventionally uploaded as
//! `BENCH_parallel.json`).
//!
//! The `kernels` section (also forced by `--timings-json`) runs the
//! fused-kernel benchmarks — the one-vs-many cosine block scan against
//! the naive per-pair loop, and the i8-quantized storage footprint
//! against f32 — and likewise needs no trained experiment. The rows
//! land in the timings JSON under `"kernels"` (conventionally uploaded
//! as `BENCH_kernels.json`). The run *asserts* the quantized payload
//! stays ≤ 0.30 of f32, and (on multicore hosts only, where timings
//! are trustworthy) that the block scan beats the naive loop.
//!
//! The `serve` section (also forced by `--timings-json`) runs the
//! serving-layer SLO benchmark — the same Zipfian client burst against
//! a batching (`max_batch` 64) and a one-tweet-per-batch server, with
//! throughput and p50/p99 ingest-to-ack latency per side — and
//! likewise needs no trained experiment. The rows land in the timings
//! JSON under `"serve"` (conventionally uploaded as
//! `BENCH_serve.json`). On multicore hosts the run *asserts* batching
//! delivers ≥ 2x the one-tweet-per-batch throughput.
//!
//! The `shard` section (also forced by `--timings-json`) runs the
//! sharded-serving benchmark — the same Zipfian client burst against a
//! 1-shard and a 4-shard server, with throughput and p50/p99
//! ingest-to-ack latency per side. The rows land in the timings JSON
//! under `"shard"` (conventionally uploaded as `BENCH_shard.json`). On
//! multicore hosts the run *asserts* 4 shards deliver ≥ 1.5x the
//! 1-shard throughput; single-core hosts log the ratio and skip the
//! assert (replicated ingest has nothing to parallelize against).

use std::time::Instant;

use ngl_bench::{tables, Experiment, Scale};

/// Hand-rolled JSON emission (the workspace deliberately has no JSON
/// dependency); dataset names are alphanumeric, so no escaping needed.
#[allow(clippy::too_many_arguments)] // one slot per optional bench section
fn write_timings_json(
    path: &str,
    exp: &Experiment,
    runs: &tables::EvalRuns,
    store: Option<&tables::StoreBenchResult>,
    parallel: Option<&tables::ParallelBenchResult>,
    kernels: Option<&tables::KernelBenchResult>,
    serve: Option<&tables::ServeBenchResult>,
    shard: Option<&tables::ShardBenchResult>,
) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"threads\": {},\n  \"datasets\": [\n",
        ngl_runtime::Executor::from_env().threads()
    ));
    for (i, (d, run)) in exp.data.eval.iter().zip(&runs.full).enumerate() {
        let t = &run.timings;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"local_s\": {:.6}, \"extract_s\": {:.6}, \
             \"cluster_s\": {:.6}, \"classify_s\": {:.6}, \"global_s\": {:.6}, \
             \"clustered_surfaces\": {}, \"rescanned_tweets\": {}}}{}\n",
            d.name,
            t.local.as_secs_f64(),
            t.extract.as_secs_f64(),
            t.cluster.as_secs_f64(),
            t.classify.as_secs_f64(),
            t.global.as_secs_f64(),
            t.surfaces_clustered,
            t.tweets_rescanned,
            if i + 1 == runs.full.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]");
    if let Some(s) = store {
        out.push_str(&format!(
            ",\n  \"store\": {{\"tweets\": {}, \"batches\": {}, \
             \"delta_bytes_avg\": {:.1}, \"delta_bytes_last\": {}, \
             \"snapshot_bytes_last\": {}, \"tweet_log_bytes\": {}, \"wal_bytes_total\": {}, \
             \"snapshots\": {}, \"sublinear\": {}, \
             \"snapshot_q_bytes\": {}, \"io_retries\": {}, \
             \"io_retry_exhausted\": {}}}",
            s.tweets,
            s.batches,
            s.delta_bytes_avg,
            s.delta_bytes_last,
            s.snapshot_bytes_last,
            s.tweet_log_bytes,
            s.wal_bytes_total,
            s.snapshots,
            s.sublinear,
            s.snapshot_q_bytes,
            s.io_retries,
            s.io_retry_exhausted,
        ));
    }
    if let Some(p) = parallel {
        out.push_str(&format!(
            ",\n  \"parallel\": {{\"spawn_overhead\": {{\"batch\": {}, \"rounds\": {}, \
             \"pooled_s\": {:.6}, \"scoped_s\": {:.6}, \"speedup\": {:.3}}}, \
             \"giant_surface_tail\": {{\"points\": {}, \"seq_s\": {:.6}, \
             \"par4_s\": {:.6}, \"speedup\": {:.3}}}, \"parallelism\": {}}}",
            p.batch,
            p.rounds,
            p.pooled_spawn_s,
            p.scoped_spawn_s,
            p.spawn_speedup,
            p.giant_points,
            p.giant_1t_s,
            p.giant_4t_s,
            p.giant_speedup,
            p.parallelism,
        ));
    }
    if let Some(k) = kernels {
        out.push_str(&format!(
            ",\n  \"kernels\": {{\"rows\": {}, \"dim\": {}, \"reps\": {}, \
             \"naive_scan_s\": {:.6}, \"block_scan_s\": {:.6}, \
             \"kernel_speedup\": {:.3}, \"quantized_bytes\": {}, \
             \"f32_bytes\": {}, \"quantized_bytes_ratio\": {:.4}, \
             \"dense_inputs\": {}, \"ikj_forward_s\": {:.6}, \
             \"kernel_forward_s\": {:.6}, \"matmul_speedup\": {:.3}, \
             \"parallelism\": {}}}",
            k.rows,
            k.dim,
            k.reps,
            k.naive_scan_s,
            k.block_scan_s,
            k.kernel_speedup,
            k.quantized_bytes,
            k.f32_bytes,
            k.quantized_bytes_ratio,
            k.dense_inputs,
            k.ikj_forward_s,
            k.kernel_forward_s,
            k.matmul_speedup,
            k.parallelism,
        ));
    }
    if let Some(s) = serve {
        out.push_str(&format!(
            ",\n  \"serve\": {{\"writers\": {}, \"requests\": {}, \"lines\": {}, \
             \"tweets\": {}, \"surfaces\": {}, \
             \"batched\": {{\"rps\": {:.1}, \"p50_ack_us\": {}, \"p99_ack_us\": {}, \
             \"batches\": {}, \"max_batch\": {}}}, \
             \"one_per_batch\": {{\"rps\": {:.1}, \"p50_ack_us\": {}, \"p99_ack_us\": {}}}, \
             \"batching_speedup\": {:.3}, \"parallelism\": {}}}",
            s.writers,
            s.requests,
            s.lines,
            s.tweets,
            s.surfaces,
            s.batched_rps,
            s.batched_p50_us,
            s.batched_p99_us,
            s.batched_batches,
            s.batched_max_batch,
            s.single_rps,
            s.single_p50_us,
            s.single_p99_us,
            s.batching_speedup,
            s.parallelism,
        ));
    }
    if let Some(s) = shard {
        out.push_str(&format!(
            ",\n  \"shard\": {{\"writers\": {}, \"requests\": {}, \"lines\": {}, \
             \"tweets\": {}, \"shards\": {}, \
             \"sharded\": {{\"rps\": {:.1}, \"p50_ack_us\": {}, \"p99_ack_us\": {}}}, \
             \"one_shard\": {{\"rps\": {:.1}, \"p50_ack_us\": {}, \"p99_ack_us\": {}}}, \
             \"shard_speedup\": {:.3}, \"parallelism\": {}}}",
            s.writers,
            s.requests,
            s.lines,
            s.tweets,
            s.shards,
            s.sharded_rps,
            s.sharded_p50_us,
            s.sharded_p99_us,
            s.single_rps,
            s.single_p50_us,
            s.single_p99_us,
            s.shard_speedup,
            s.parallelism,
        ));
    }
    out.push_str("\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("[reproduce] failed to write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[reproduce] wrote per-stage timings to {path}");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Drain `--timings-json <path>` before the section filter below —
    // the path operand would otherwise be mistaken for a section name.
    let mut drain_value = |flag: &str, hint: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            if i + 1 >= args.len() {
                eprintln!("{flag} requires a value (e.g. {hint})");
                std::process::exit(2);
            }
            let value = args.remove(i + 1);
            args.remove(i);
            value
        })
    };
    let timings_json = drain_value("--timings-json", "BENCH_pipeline.json");
    let store_dir = drain_value("--store-dir", "./ngl-store");
    let checkpoint_every = drain_value("--checkpoint-every", "8")
        .map(|v| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("--checkpoint-every must be a number, got {v:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(8);
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(2024);
    let mut sections: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--") && a.parse::<u64>().is_err())
        .cloned()
        .collect();
    if sections.is_empty() {
        sections.push("all".to_string());
    }
    const KNOWN: &[&str] = &[
        "all",
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "fig3",
        "fig4",
        "casestudy",
        "errors",
        "emd",
        "ablations",
        "store",
        "parallel",
        "kernels",
        "serve",
        "shard",
    ];
    if let Some(bad) = sections.iter().find(|s| !KNOWN.contains(&s.as_str())) {
        eprintln!("unknown section {bad:?}; known sections: {}", KNOWN.join(" "));
        std::process::exit(2);
    }
    let want = |s: &str| sections.iter().any(|x| x == s || x == "all");

    // `parallel` / `kernels` alone need no trained models — skip the
    // (expensive) experiment build and exit once the bench rows are
    // printed.
    let run_parallel = sections.iter().any(|s| s == "parallel") || timings_json.is_some();
    let run_kernels = sections.iter().any(|s| s == "kernels") || timings_json.is_some();
    let run_serve = sections.iter().any(|s| s == "serve") || timings_json.is_some();
    let run_shard = sections.iter().any(|s| s == "shard") || timings_json.is_some();
    let run_shard_section = || {
        eprintln!("[reproduce] running sharded-serving benchmark...");
        let t = Instant::now();
        let s = tables::shard_bench(4);
        eprintln!("[reproduce] shard bench done in {:.1}s", t.elapsed().as_secs_f64());
        println!("{}", tables::shard_table(&s));
        // Throughput comparisons need real cores: every shard replays
        // the full ingest stream, so on one core sharding can only tie.
        if s.parallelism > 1 && s.shard_speedup < 1.5 {
            eprintln!(
                "[reproduce] FAIL: {} shards deliver only {:.2}x the 1-shard \
                 throughput (< 1.5x) — ownership partitioning is not paying for itself",
                s.shards, s.shard_speedup
            );
            std::process::exit(1);
        }
        if s.parallelism <= 1 {
            eprintln!(
                "[reproduce] single-core host: shard speedup {:.2}x logged, assert skipped",
                s.shard_speedup
            );
        }
        s
    };
    let run_serve_section = || {
        eprintln!("[reproduce] running serving-layer SLO benchmark...");
        let t = Instant::now();
        let s = tables::serve_bench();
        eprintln!("[reproduce] serve bench done in {:.1}s", t.elapsed().as_secs_f64());
        println!("{}", tables::serve_table(&s));
        // Wall-clock SLOs need real cores (same convention as the
        // executor and kernel benchmarks).
        if s.parallelism > 1 && s.batching_speedup < 2.0 {
            eprintln!(
                "[reproduce] FAIL: batching ingest is only {:.2}x the one-tweet-per-batch \
                 throughput (< 2x) — server-side coalescing is not paying for itself",
                s.batching_speedup
            );
            std::process::exit(1);
        }
        s
    };
    let run_kernel_section = || {
        eprintln!("[reproduce] running fused-kernel benchmarks...");
        let t = Instant::now();
        let k = tables::kernel_bench();
        eprintln!("[reproduce] kernel bench done in {:.1}s", t.elapsed().as_secs_f64());
        println!("{}", tables::kernel_table(&k));
        if k.quantized_bytes_ratio > 0.30 {
            eprintln!(
                "[reproduce] FAIL: quantized payload is {:.4} of f32 (> 0.30) — \
                 the i8 codec is not delivering its shrink factor",
                k.quantized_bytes_ratio
            );
            std::process::exit(1);
        }
        // Wall-clock comparisons are only trustworthy with real cores;
        // single-core CI runners skip the speedup assert (same
        // convention as the executor tail benchmarks).
        if k.parallelism > 1 && k.kernel_speedup <= 1.0 {
            eprintln!(
                "[reproduce] FAIL: cosine block scan is {:.2}x vs the naive loop — \
                 the fused kernels are slower than what they replaced",
                k.kernel_speedup
            );
            std::process::exit(1);
        }
        if k.parallelism > 1 && k.matmul_speedup <= 1.0 {
            eprintln!(
                "[reproduce] FAIL: blocked matmul is {:.2}x vs the ikj loop on the encoder's \
                 dense shapes — the kernel is slower than what it replaced",
                k.matmul_speedup
            );
            std::process::exit(1);
        }
        k
    };
    if timings_json.is_none()
        && store_dir.is_none()
        && !sections.is_empty()
        && sections
            .iter()
            .all(|s| s == "parallel" || s == "kernels" || s == "serve" || s == "shard")
    {
        let t = Instant::now();
        if run_parallel {
            eprintln!("[reproduce] running persistent-executor tail benchmarks...");
            println!("{}", tables::parallel_table(&tables::parallel_bench()));
        }
        if run_kernels {
            run_kernel_section();
        }
        if run_serve {
            run_serve_section();
        }
        if run_shard {
            run_shard_section();
        }
        eprintln!("[reproduce] total {:.1}s", t.elapsed().as_secs_f64());
        return;
    }

    let scale = if quick { Scale::quick() } else { Scale::full() };
    eprintln!(
        "[reproduce] building experiment (seed {seed}, {} scale)...",
        if quick { "quick" } else { "full" }
    );
    let t0 = Instant::now();
    let exp = Experiment::build(seed, scale);
    eprintln!("[reproduce] setup done in {:.1}s", t0.elapsed().as_secs_f64());

    if want("table1") {
        println!("{}", tables::table1(&exp));
    }
    if want("table2") {
        eprintln!("[reproduce] training soft-NN variant for Table II...");
        println!("{}", tables::table2(&exp));
    }

    let needs_runs = timings_json.is_some()
        || ["table3", "table4", "table5", "fig4", "casestudy", "errors", "emd"]
            .iter()
            .any(|s| want(s));
    let runs = if needs_runs {
        eprintln!("[reproduce] running full pipeline over all eval datasets...");
        let t = Instant::now();
        let r = tables::run_all(&exp);
        eprintln!("[reproduce] pipeline runs done in {:.1}s", t.elapsed().as_secs_f64());
        Some(r)
    } else {
        None
    };

    if want("table3") {
        eprintln!("[reproduce] training local baselines (Aguilar, BERT-NER)...");
        let aguilar = exp.train_aguilar();
        let bert = exp.train_bert_ner();
        println!("{}", tables::table3(&exp, runs.as_ref().expect("runs"), &aguilar, &bert));
    }
    if want("table4") {
        println!("{}", tables::table4(&exp, runs.as_ref().expect("runs")));
    }
    if want("table5") {
        eprintln!("[reproduce] training global baselines (Akbik, HIRE, DocL)...");
        let akbik = exp.train_akbik();
        let hire = exp.train_hire();
        let docl = exp.make_docl();
        println!("{}", tables::table5(&exp, runs.as_ref().expect("runs"), &akbik, &hire, &docl));
    }
    if want("fig3") {
        eprintln!("[reproduce] running ablation variants for Figure 3...");
        println!("{}", tables::fig3(&exp));
    }
    if want("fig4") {
        println!("{}", tables::fig4(&exp, runs.as_ref().expect("runs")));
    }
    if want("casestudy") {
        println!("{}", tables::case_study(&exp, runs.as_ref().expect("runs")));
    }
    if want("errors") {
        println!("{}", tables::error_analysis(&exp, runs.as_ref().expect("runs")));
    }
    if want("emd") {
        println!("{}", tables::emd_gains(&exp, runs.as_ref().expect("runs")));
    }
    if want("ablations") {
        eprintln!("[reproduce] sweeping design-choice ablations...");
        println!("{}", tables::ablations(&exp));
    }
    // `store` is off by default (like ablations); `--store-dir` or
    // `--timings-json` also force it so the report always carries the
    // delta-vs-snapshot row.
    let run_store =
        sections.iter().any(|s| s == "store") || store_dir.is_some() || timings_json.is_some();
    let store = if run_store {
        eprintln!("[reproduce] streaming through the durable store...");
        let dir = store_dir.clone().map(std::path::PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("ngl-store-bench-{}", std::process::id()))
        });
        let t = Instant::now();
        match tables::store_bench(&exp, &dir, checkpoint_every) {
            Ok(r) => {
                eprintln!("[reproduce] store run done in {:.1}s", t.elapsed().as_secs_f64());
                println!("{}", tables::store_table(&r));
                if r.tweets >= 1000 && !r.sublinear {
                    eprintln!(
                        "[reproduce] FAIL: delta bytes/batch ({}) not below full snapshot \
                         ({} B) after {} tweets — delta checkpointing is not sublinear",
                        r.delta_bytes_last, r.snapshot_bytes_last, r.tweets
                    );
                    std::process::exit(1);
                }
                if store_dir.is_none() {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                Some(r)
            }
            Err(e) => {
                eprintln!("[reproduce] store bench failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let parallel = if run_parallel {
        eprintln!("[reproduce] running persistent-executor tail benchmarks...");
        let t = Instant::now();
        let p = tables::parallel_bench();
        eprintln!("[reproduce] parallel bench done in {:.1}s", t.elapsed().as_secs_f64());
        println!("{}", tables::parallel_table(&p));
        Some(p)
    } else {
        None
    };
    let kernels = if run_kernels { Some(run_kernel_section()) } else { None };
    let serve = if run_serve { Some(run_serve_section()) } else { None };
    let shard = if run_shard { Some(run_shard_section()) } else { None };
    if let Some(path) = &timings_json {
        write_timings_json(
            path,
            &exp,
            runs.as_ref().expect("runs"),
            store.as_ref(),
            parallel.as_ref(),
            kernels.as_ref(),
            serve.as_ref(),
            shard.as_ref(),
        );
    }
    eprintln!("[reproduce] total {:.1}s", t0.elapsed().as_secs_f64());
}
