//! `ngl` — the NER Globalizer command line.
//!
//! ```text
//! ngl generate --profile <d1|d2|d3|d4|d5|wnut17|btc|local-train> \
//!              [--seed N] [--out file.conll]
//! ngl train    --train train.conll --d5 d5.conll --out model.nglb \
//!              [--dim 32] [--epochs 8]
//! ngl tag      --model model.nglb [--input tweets.txt] [--conll] \
//!              [--store-dir DIR] [--checkpoint-every N] [--shards N]
//! ngl recover  --model model.nglb --store-dir DIR [--checkpoint-every N] [--shards N]
//! ngl serve    --model model.nglb --store-dir DIR [--addr HOST:PORT] \
//!              [--max-batch N] [--max-delay-ms N] [--queue-cap N] \
//!              [--finalize-every N] [--checkpoint-every N] [--shards N]
//! ngl eval     --gold gold.conll --pred pred.conll
//! ```
//!
//! `generate` writes a synthetic Table-I-style dataset as CoNLL;
//! `train` fine-tunes the Local NER encoder on one annotated corpus and
//! the Global NER components on a D5-style stream, saving everything as
//! one model bundle; `tag` streams raw tweets (one per line, stdin by
//! default) through the full pipeline — with `--store-dir` the run is
//! durable: batches are write-ahead logged and state checkpoints
//! incrementally, so a later `tag` or `recover` on the same dir resumes
//! where the stream left off; `recover` replays a store dir without
//! ingesting anything new and reports the recovered state; `serve`
//! exposes the durable pipeline over HTTP — batching ingest, read-only
//! queries against the last finalized state, and typed admission
//! control (see `ngl_serve`); `eval` scores CoNLL predictions against
//! CoNLL gold.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::Read;
use std::process::ExitCode;

use ngl_core::{
    model_fingerprint, train_globalizer, DegradationMode, DurableGlobalizer, GlobalizerBundle,
    GlobalizerConfig, GlobalizerTrainingConfig, NerGlobalizer, PoolPolicy, RecoveryReport,
    ShardedGlobalizer, SharedPageCache,
};
use ngl_corpus::{profiles, Dataset, KnowledgeBase};
use ngl_encoder::{train_encoder, EncoderConfig, TokenEncoder, TrainConfig};
use ngl_eval::evaluate;
use ngl_text::{tokenize, EntityType, Span};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&parse_flags(&args[1..])),
        Some("train") => cmd_train(&parse_flags(&args[1..])),
        Some("tag") => cmd_tag(&parse_flags(&args[1..])),
        Some("recover") => cmd_recover(&parse_flags(&args[1..])),
        Some("serve") => cmd_serve(&parse_flags(&args[1..])),
        Some("eval") => cmd_eval(&parse_flags(&args[1..])),
        Some("help") | Some("--help") | Some("-h") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  ngl generate --profile <d1|d2|d3|d4|d5|wnut17|btc|local-train> [--seed N] [--out file.conll]
  ngl train    --train train.conll --d5 d5.conll --out model.nglb [--dim 32] [--epochs 8]
  ngl tag      --model model.nglb [--input tweets.txt] [--conll] [--store-dir DIR]
               [--checkpoint-every N] [--shards N]
  ngl recover  --model model.nglb --store-dir DIR [--checkpoint-every N] [--shards N]
  ngl serve    --model model.nglb --store-dir DIR [--addr HOST:PORT] [--max-batch N]
               [--max-delay-ms N] [--queue-cap N] [--finalize-every N] [--checkpoint-every N]
               [--shards N]
  ngl eval     --gold gold.conll --pred pred.conll";

/// Parses `--key value` pairs plus bare `--flag` switches.
fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(key) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
            match value {
                Some(v) => {
                    out.insert(key.to_string(), v);
                    i += 2;
                }
                None => {
                    out.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}\n{USAGE}"))
}

fn parse_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key} must be a number, got {v:?}")),
    }
}

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let profile = required(flags, "profile")?;
    let seed: u64 = parse_num(flags, "seed", 2024)?;
    let spec = match profile {
        "d1" => profiles::d1(seed),
        "d2" => profiles::d2(seed),
        "d3" => profiles::d3(seed),
        "d4" => profiles::d4(seed),
        "d5" => profiles::d5(seed),
        "wnut17" => profiles::wnut17_like(seed),
        "btc" => profiles::btc_like(seed),
        "local-train" => profiles::local_train(seed),
        other => return Err(format!("unknown profile {other:?}")),
    };
    // Training profiles draw from the train lexicon universe, evaluation
    // profiles from the eval universe (see DESIGN.md).
    let kb = if profile == "local-train" {
        KnowledgeBase::build_in(seed ^ 0x0001, 400, ngl_corpus::namegen::Universe::Train)
    } else if profile == "d5" {
        KnowledgeBase::build_in(seed ^ 0x0003, 200, ngl_corpus::namegen::Universe::Eval)
    } else {
        KnowledgeBase::build_in(seed ^ 0x0002, 400, ngl_corpus::namegen::Universe::Eval)
    };
    let dataset = Dataset::generate(&spec, &kb);
    let conll = dataset.to_conll();
    match flags.get("out") {
        Some(path) => std::fs::write(path, conll).map_err(|e| e.to_string())?,
        None => print!("{conll}"),
    }
    let s = dataset.stats();
    eprintln!(
        "generated {} ({} tweets, {} entities, {} mentions)",
        s.name, s.size, s.unique_entities, s.total_mentions
    );
    Ok(())
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let train_path = required(flags, "train")?;
    let d5_path = required(flags, "d5")?;
    let out = required(flags, "out")?;
    let dim: usize = parse_num(flags, "dim", 32)?;
    let epochs: usize = parse_num(flags, "epochs", 8)?;
    let seed: u64 = parse_num(flags, "seed", 2024)?;

    let read_conll = |path: &str| -> Result<Dataset, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Dataset::from_conll(path, &text).map_err(|e| format!("{path}: {e}"))
    };
    let train_set = read_conll(train_path)?;
    let d5 = read_conll(d5_path)?;

    eprintln!("fine-tuning the Local NER encoder on {} tweets...", train_set.tweets.len());
    let mut encoder = TokenEncoder::new(EncoderConfig {
        embed_dim: (dim * 3 / 4).max(8),
        hidden_dim: dim * 3 / 2,
        out_dim: dim,
        seed,
        ..Default::default()
    });
    let stats = train_encoder(
        &mut encoder,
        &train_set,
        &TrainConfig { epochs, seed: seed ^ 0xE7C, ..Default::default() },
    );
    eprintln!(
        "  {} epochs, dev token accuracy {:.1}%",
        stats.epochs_run,
        stats.dev_token_accuracy * 100.0
    );

    eprintln!("training Global NER components on {} tweets...", d5.tweets.len());
    let trained = train_globalizer(&encoder, &d5, &GlobalizerTrainingConfig::for_dim(dim));
    eprintln!(
        "  {} ({} records), classifier gold-cluster macro-F1 {:.1}%",
        trained.report.objective,
        trained.report.dataset_size,
        trained.report.classifier_val_macro_f1 * 100.0
    );

    let bundle = GlobalizerBundle::from_models(encoder, trained.phrase, trained.classifier);
    bundle.save(out).map_err(|e| e.to_string())?;
    eprintln!("model saved to {out}");
    Ok(())
}

/// Fingerprint of the model bundle *file*, binding a durable store to
/// the exact serialized models that wrote it.
fn model_file_fingerprint(path: &str) -> Result<u64, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(model_fingerprint(&bytes))
}

/// `--shards N` (default 1). The count is pinned by the store's
/// `shards.meta` on first open; reopening with a different value fails
/// fast with a typed `ShardLayoutMismatch`.
fn parse_shards(flags: &HashMap<String, String>) -> Result<u32, String> {
    let shards: u32 = parse_num(flags, "shards", 1)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    Ok(shards)
}

fn cmd_tag(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = required(flags, "model")?;
    let bundle = GlobalizerBundle::load(model).map_err(|e| e.to_string())?;
    let text = match flags.get("input") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => {
            let mut buf = String::new();
            std::io::stdin().read_to_string(&mut buf).map_err(|e| e.to_string())?;
            buf
        }
    };
    let tweets: Vec<Vec<String>> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| tokenize(l).into_iter().map(|t| t.text).collect())
        .collect();
    if tweets.is_empty() {
        return Err("no input tweets".to_string());
    }

    let shards = parse_shards(flags)?;
    let pipeline = NerGlobalizer::new(
        bundle.encoder,
        bundle.phrase,
        bundle.classifier,
        // Sharded runs fan out over one process-wide pool so N shards
        // never oversubscribe cores; a 1-shard run keeps its own.
        GlobalizerConfig {
            pool: if shards > 1 { PoolPolicy::Shared } else { PoolPolicy::PerPipeline },
            ..Default::default()
        },
    );
    if shards > 1 && !flags.contains_key("store-dir") {
        return Err("--shards requires --store-dir (sharding partitions the durable store)".into());
    }
    let (spans, n_surfaces, wedged) = match flags.get("store-dir") {
        Some(dir) if shards > 1 => {
            let every: usize = parse_num(flags, "checkpoint-every", 8)?;
            let fp = model_file_fingerprint(model)?;
            let (mut sharded, report) =
                ShardedGlobalizer::open_with_fingerprint(pipeline, dir, every, shards, Some(fp))
                    .map_err(|e| e.to_string())?;
            let resumed =
                report.shards.iter().any(|r| r.replayed_batches > 0 || r.snapshot_seq.is_some());
            if resumed {
                eprintln!(
                    "resumed {shards}-shard store {dir}: digest {:016x}",
                    report.combined_digest
                );
            }
            sharded.ingest(tweets.clone(), None).map_err(|e| e.to_string())?;
            let all = sharded.finalize().map_err(|e| e.to_string())?;
            for (i, health) in sharded.degradations().iter().enumerate() {
                if health.is_degraded() {
                    eprintln!(
                        "warning: shard {i} degraded ({}): {} wal commit failures, \
                         {} snapshot failures, {} spill pins, {} spill losses",
                        health.mode(),
                        health.wal_commit_failures,
                        health.snapshot_failures,
                        health.spill_pins,
                        health.spill_losses
                    );
                }
            }
            let skip = all.len().saturating_sub(tweets.len());
            let wedged = sharded.admission_mode() == DegradationMode::ReadOnly;
            (all[skip..].to_vec(), sharded.merged().n_surfaces(), wedged)
        }
        Some(dir) => {
            let every: usize = parse_num(flags, "checkpoint-every", 8)?;
            let fp = model_file_fingerprint(model)?;
            let (mut durable, report) =
                DurableGlobalizer::open_with_fingerprint(pipeline, dir, every, Some(fp))
                    .map_err(|e| e.to_string())?;
            if report.replayed_batches > 0 || report.snapshot_seq.is_some() {
                eprintln!(
                    "resumed store {dir}: {} tweets, watermark {}{}",
                    report.tweets,
                    report.watermark,
                    if report.torn_tail { " (torn tail discarded)" } else { "" }
                );
            }
            durable.ingest(tweets.clone(), None).map_err(|e| e.to_string())?;
            let all = durable.finalize().map_err(|e| e.to_string())?;
            let health = durable.degradation();
            if health.is_degraded() {
                eprintln!(
                    "warning: storage degraded ({}): {} wal commit failures, \
                     {} snapshot failures, {} spill pins, {} spill losses",
                    health.mode(),
                    health.wal_commit_failures,
                    health.snapshot_failures,
                    health.spill_pins,
                    health.spill_losses
                );
            }
            // A resumed store emits spans for every retained tweet;
            // this invocation only prints the ones it just ingested.
            let skip = all.len().saturating_sub(tweets.len());
            let wedged = health.mode() == DegradationMode::ReadOnly;
            (all[skip..].to_vec(), durable.inner().n_surfaces(), wedged)
        }
        None => {
            let mut pipeline = pipeline;
            pipeline.ingest(tweets.clone(), None);
            (pipeline.finalize(), pipeline.n_surfaces(), false)
        }
    };

    if flags.contains_key("conll") {
        print!("{}", ngl_corpus::conll::predictions_to_conll(&tweets, &spans));
    } else {
        for (tokens, s) in tweets.iter().zip(&spans) {
            let rendered: Vec<String> =
                s.iter().map(|sp| format!("{} [{}]", sp.surface(tokens), sp.ty)).collect();
            println!(
                "{}\t=> {}",
                tokens.join(" "),
                if rendered.is_empty() { "-".to_string() } else { rendered.join(", ") }
            );
        }
    }
    eprintln!("tagged {} tweets ({} candidate surfaces tracked)", tweets.len(), n_surfaces);
    if wedged {
        // Scripts need a hard signal that the store stopped accepting
        // writes; the tagged output above is still valid read state.
        return Err("store is read-only: the degradation ladder wedged at ReadOnly".to_string());
    }
    Ok(())
}

/// One recovery section (the whole store, or one shard of it).
fn print_recovery_section(report: &RecoveryReport) {
    println!(
        "snapshot:           {}",
        match report.snapshot_seq {
            Some(seq) => format!("op {seq}"),
            None => "none".to_string(),
        }
    );
    println!("replayed batches:   {}", report.replayed_batches);
    println!("replayed finalizes: {}", report.replayed_finalizes);
    println!("torn tail:          {}", report.torn_tail);
    println!("watermark:          {}", report.watermark);
    println!("tweets:             {}", report.tweets);
    println!("surfaces:           {} ({} resident)", report.surfaces, report.resident_surfaces);
    println!("state digest:       {:016x}", report.digest);
    if report.unverified_finalizes > 0 {
        println!(
            "unverified marks:   {} (writer degraded under spill faults; \
             replay is the fault-free reconstruction of its inputs)",
            report.unverified_finalizes
        );
    }
}

fn cmd_recover(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = required(flags, "model")?;
    let dir = required(flags, "store-dir")?;
    let every: usize = parse_num(flags, "checkpoint-every", 8)?;
    let shards = parse_shards(flags)?;
    let bundle = GlobalizerBundle::load(model).map_err(|e| e.to_string())?;
    let pipeline = NerGlobalizer::new(
        bundle.encoder,
        bundle.phrase,
        bundle.classifier,
        GlobalizerConfig {
            pool: if shards > 1 { PoolPolicy::Shared } else { PoolPolicy::PerPipeline },
            ..Default::default()
        },
    );
    let fp = model_file_fingerprint(model)?;
    if shards > 1 {
        let (sharded, report) =
            ShardedGlobalizer::open_with_fingerprint(pipeline, dir, every, shards, Some(fp))
                .map_err(|e| e.to_string())?;
        println!("store:              {dir} ({shards} shards)");
        for (i, shard_report) in report.shards.iter().enumerate() {
            println!("--- shard {i:02} ---");
            print_recovery_section(shard_report);
            if report.caught_up_ops[i] > 0 {
                println!(
                    "caught up:          {} ops from the most advanced shard's WAL",
                    report.caught_up_ops[i]
                );
            }
            let health = sharded.degradations()[i].mode();
            println!("storage health:     {health}");
        }
        println!("--- combined ---");
        println!("combined digest:    {:016x}", report.combined_digest);
        println!(
            "merged surfaces:    {} ({} tweets, watermark {})",
            sharded.merged().n_surfaces(),
            sharded.merged().tweet_base().len(),
            sharded.merged().scan_watermark()
        );
        let (hits, misses) = SharedPageCache::global().stats();
        println!("shared page cache:  {hits} hits / {misses} misses (process-wide)");
        drop(sharded); // recovery only: nothing new is logged
        return Ok(());
    }
    let (durable, report) =
        DurableGlobalizer::open_with_fingerprint(pipeline, dir, every, Some(fp))
            .map_err(|e| e.to_string())?;
    println!("store:              {dir}");
    print_recovery_section(&report);
    println!(
        "snapshot bytes:     {} (quantized codec)",
        durable.inner().export_state_bytes().len()
    );
    if let Some(pool) = durable.spill_pool() {
        println!(
            "spill bytes:        {} live / {} file (quantized codec)",
            pool.live_bytes(),
            pool.file_bytes()
        );
        // The page cache is process-shared (one byte budget across
        // every spill file); these are the shared totals.
        let (hits, misses) = pool.page_cache_stats();
        println!("shared page cache:  {hits} hits / {misses} misses (process-wide)");
    }
    let health = durable.degradation();
    let io = durable.io_stats();
    println!(
        "storage health:     {} ({} io retries absorbed, {} exhausted)",
        health.mode(),
        io.transient_retries,
        io.retry_exhausted
    );
    drop(durable); // recovery only: nothing new is logged
    Ok(())
}

fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let model = required(flags, "model")?;
    let dir = required(flags, "store-dir")?;
    let every: usize = parse_num(flags, "checkpoint-every", 8)?;
    let bundle = GlobalizerBundle::load(model).map_err(|e| e.to_string())?;
    // Ingest batches and query handlers run concurrently; share one
    // runtime pool between them instead of spinning up a second one.
    let pipeline = NerGlobalizer::new(
        bundle.encoder,
        bundle.phrase,
        bundle.classifier,
        GlobalizerConfig { pool: PoolPolicy::Shared, ..Default::default() },
    );
    let fp = model_file_fingerprint(model)?;
    let shards = parse_shards(flags)?;
    let cfg = ngl_serve::ServeConfig {
        addr: flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".to_string()),
        max_batch: parse_num(flags, "max-batch", 64)?,
        max_delay_ms: parse_num(flags, "max-delay-ms", 5)?,
        queue_cap: parse_num(flags, "queue-cap", 1024)?,
        finalize_every: parse_num(flags, "finalize-every", 8)?,
        ack_timeout_ms: parse_num(flags, "ack-timeout-ms", 10_000)?,
        pressure_shed_milli: parse_num(flags, "pressure-shed-milli", 2000)?,
    };
    let server = if shards > 1 {
        let (sharded, report) =
            ShardedGlobalizer::open_with_fingerprint(pipeline, dir, every, shards, Some(fp))
                .map_err(|e| e.to_string())?;
        let resumed =
            report.shards.iter().any(|r| r.replayed_batches > 0 || r.snapshot_seq.is_some());
        if resumed {
            eprintln!("resumed {shards}-shard store {dir}: digest {:016x}", report.combined_digest);
        }
        ngl_serve::Server::start_sharded(sharded, report, cfg).map_err(|e| e.to_string())?
    } else {
        let (durable, report) =
            DurableGlobalizer::open_with_fingerprint(pipeline, dir, every, Some(fp))
                .map_err(|e| e.to_string())?;
        if report.replayed_batches > 0 || report.snapshot_seq.is_some() {
            eprintln!(
                "resumed store {dir}: {} tweets, watermark {}{}",
                report.tweets,
                report.watermark,
                if report.torn_tail { " (torn tail discarded)" } else { "" }
            );
        }
        ngl_serve::Server::start(durable, report, cfg).map_err(|e| e.to_string())?
    };
    println!("LISTENING {}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    eprintln!("serving on {} — POST /ingest, GET /tag /surface /stats /health", server.addr());
    // Serve until the process is terminated; all the work happens on
    // the server's accept and engine threads.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

type Sentences = Vec<(Vec<String>, Vec<Span>)>;

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    let gold_path = required(flags, "gold")?;
    let pred_path = required(flags, "pred")?;
    let read = |path: &str| -> Result<Sentences, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let tweets = ngl_corpus::from_conll(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(tweets
            .into_iter()
            .map(|t| {
                let spans = t.gold_spans();
                (t.tokens, spans)
            })
            .collect())
    };
    let gold = read(gold_path)?;
    let pred = read(pred_path)?;
    if gold.len() != pred.len() {
        return Err(format!("sentence count mismatch: gold {} vs pred {}", gold.len(), pred.len()));
    }
    for (i, (g, p)) in gold.iter().zip(&pred).enumerate() {
        if g.0 != p.0 {
            return Err(format!("token mismatch in sentence {i}"));
        }
    }
    let gold_spans: Vec<Vec<Span>> = gold.into_iter().map(|(_, s)| s).collect();
    let pred_spans: Vec<Vec<Span>> = pred.into_iter().map(|(_, s)| s).collect();
    let scores = evaluate(&gold_spans, &pred_spans);
    println!("type  precision  recall  f1");
    for ty in EntityType::ALL {
        let s = scores.of(ty);
        println!("{:<5} {:<10.3} {:<7.3} {:.3}", ty.code(), s.precision(), s.recall(), s.f1());
    }
    println!("macro-F1: {:.3}", scores.macro_f1());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[&str]) -> HashMap<String, String> {
        parse_flags(&pairs.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flag_parsing_handles_pairs_and_switches() {
        let f = flags(&["--profile", "d2", "--conll", "--seed", "7"]);
        assert_eq!(f.get("profile").map(String::as_str), Some("d2"));
        assert_eq!(f.get("conll").map(String::as_str), Some("true"));
        assert_eq!(f.get("seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn missing_required_flag_is_an_error() {
        let f = flags(&[]);
        assert!(required(&f, "model").is_err());
    }

    #[test]
    fn numeric_parsing_validates() {
        let f = flags(&["--seed", "abc"]);
        assert!(parse_num::<u64>(&f, "seed", 1).is_err());
        let f = flags(&["--seed", "9"]);
        assert_eq!(parse_num::<u64>(&f, "seed", 1).unwrap(), 9);
        assert_eq!(parse_num::<u64>(&flags(&[]), "seed", 1).unwrap(), 1);
    }

    #[test]
    fn unknown_profile_is_rejected() {
        let f = flags(&["--profile", "dX"]);
        assert!(cmd_generate(&f).is_err());
    }
}
