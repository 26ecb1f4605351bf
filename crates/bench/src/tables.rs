//! Regenerators for every table and figure of the paper.

use ngl_baselines::{AkbikTagger, DoclNer, DocumentTagger, HireNer};
use ngl_core::AblationMode;
use ngl_corpus::{Dataset, GoldMention};
use ngl_encoder::{SequenceTagger, TokenEncoder};
use ngl_eval::{evaluate, evaluate_emd, fully_missed_entities, mistype_stats, recall_by_frequency};
use ngl_text::shape::SHAPE_DIM;
use ngl_text::{decode_bio, EntityType, Span};

use crate::experiment::{Experiment, PipelineRun};
use crate::fmt::{f2, pct, render_table, secs};

/// Full-pipeline runs over every eval dataset, aligned with
/// `exp.data.eval`. Computed once (in parallel) and shared by the tables.
pub struct EvalRuns {
    /// One FullGlobal run per eval dataset.
    pub full: Vec<PipelineRun>,
}

/// Runs the full pipeline over all six eval datasets in parallel on
/// the workspace executor (one task per dataset, `NGL_THREADS`-aware).
pub fn run_all(exp: &Experiment) -> EvalRuns {
    let exec = ngl_runtime::Executor::from_env();
    let full =
        exec.par_map_ref(&exp.data.eval, |_, d| exp.run_pipeline(d, AblationMode::FullGlobal));
    EvalRuns { full }
}

fn per_type_f1(scores: &ngl_eval::NerScores) -> Vec<String> {
    EntityType::ALL.iter().map(|&t| f2(scores.of(t).f1())).collect()
}

/// Table I: dataset statistics.
pub fn table1(exp: &Experiment) -> String {
    let mut rows = Vec::new();
    let mut push = |d: &Dataset| {
        let s = d.stats();
        rows.push(vec![
            s.name.clone(),
            s.size.to_string(),
            s.n_topics.to_string(),
            s.n_hashtags.to_string(),
            s.unique_entities.to_string(),
            s.total_mentions.to_string(),
        ]);
    };
    for d in &exp.data.eval[..4] {
        push(d);
    }
    push(&exp.data.d5);
    for d in &exp.data.eval[4..] {
        push(d);
    }
    render_table(
        "Table I: Twitter datasets (synthetic stream substrate)",
        &["Dataset", "Size", "#Topics", "#Hashtags", "#Entities", "#Mentions"],
        &rows,
    )
}

/// Table II: Phrase Embedder / Entity Classifier training for both
/// contrastive objectives, extended with the production-relevant
/// comparison — the full pipeline's mean streaming macro-F1 under each
/// objective (which is what the paper's choice of the triplet variant
/// ultimately rests on).
pub fn table2(exp: &Experiment) -> String {
    let (soft, soft_stack) = exp.train_soft_nn_stack();
    let pipeline_f1 =
        |phrase: &ngl_core::PhraseEmbedder, classifier: &ngl_core::EntityClassifier| -> f64 {
            let mut f1s = Vec::new();
            for d in exp.data.streaming_eval() {
                let mut p = ngl_core::NerGlobalizer::new(
                    exp.local.clone(),
                    phrase.clone(),
                    classifier.clone(),
                    ngl_core::GlobalizerConfig::default(),
                );
                let toks: Vec<Vec<String>> = d.tweets.iter().map(|t| t.tokens.clone()).collect();
                p.ingest(toks, None);
                let out = p.finalize();
                let gold = Experiment::gold_of(d);
                f1s.push(evaluate(&gold, &out).macro_f1());
            }
            f1s.iter().sum::<f64>() / f1s.len() as f64
        };
    let triplet_pipeline = pipeline_f1(&exp.phrase, &exp.classifier);
    let soft_pipeline = pipeline_f1(&soft_stack.0, &soft_stack.1);
    let rows = vec![
        vec![
            exp.triplet_report.objective.clone(),
            format!("{} triplets", exp.triplet_report.dataset_size),
            format!("{:.4}", exp.triplet_report.train_loss),
            format!("{:.4}", exp.triplet_report.val_loss),
            format!("{:.1}%", exp.triplet_report.classifier_val_macro_f1 * 100.0),
            f2(triplet_pipeline),
        ],
        vec![
            soft.objective.clone(),
            format!("{} candidate mentions", soft.dataset_size),
            format!("{:.4}", soft.train_loss),
            format!("{:.4}", soft.val_loss),
            format!("{:.1}%", soft.classifier_val_macro_f1 * 100.0),
            f2(soft_pipeline),
        ],
    ];
    render_table(
        "Table II: Training of Phrase Embedder and Entity Classifier",
        &[
            "Objective",
            "Dataset size",
            "Train loss",
            "Val loss",
            "Clf val Macro-F1",
            "Pipeline Macro-F1 (D1-D4)",
        ],
        &rows,
    )
}

/// Table III: NER Globalizer vs local NER systems.
pub fn table3(
    exp: &Experiment,
    runs: &EvalRuns,
    aguilar: &dyn SequenceTagger,
    bert: &dyn SequenceTagger,
) -> String {
    let mut rows = Vec::new();
    for (d, run) in exp.data.eval.iter().zip(&runs.full) {
        let gold = Experiment::gold_of(d);
        let mut push = |system: &str, pred: &[Vec<Span>]| {
            let s = evaluate(&gold, pred);
            let mut row = vec![d.name.clone(), system.to_string()];
            row.extend(per_type_f1(&s));
            row.push(f2(s.macro_f1()));
            rows.push(row);
        };
        push("NER Globalizer", &run.global);
        let ag: Vec<Vec<Span>> =
            d.tweets.iter().map(|t| decode_bio(&aguilar.tag(&t.tokens))).collect();
        push("Aguilar et al.", &ag);
        let bn: Vec<Vec<Span>> =
            d.tweets.iter().map(|t| decode_bio(&bert.tag(&t.tokens))).collect();
        push("BERT-NER", &bn);
    }
    render_table(
        "Table III: NER Globalizer vs. Local NER systems (F1 per type, Macro-F1)",
        &["Dataset", "System", "PER", "LOC", "ORG", "MISC", "MacroF1"],
        &rows,
    )
}

/// Table IV: local→global ablation with per-type P/R/F1, execution time,
/// F1 gain and time overhead.
pub fn table4(exp: &Experiment, runs: &EvalRuns) -> String {
    let mut rows = Vec::new();
    let mut macro_gains = Vec::new();
    let mut streaming_gains = Vec::new();
    let mut type_gains: [Vec<f64>; EntityType::COUNT] = Default::default();
    for (di, (d, run)) in exp.data.eval.iter().zip(&runs.full).enumerate() {
        let gold = Experiment::gold_of(d);
        let ls = evaluate(&gold, &run.local);
        let gs = evaluate(&gold, &run.global);
        for &ty in &[
            EntityType::Organization,
            EntityType::Miscellaneous,
            EntityType::Location,
            EntityType::Person,
        ] {
            let l = ls.of(ty);
            let g = gs.of(ty);
            let gain = if l.f1() > 0.0 { g.f1() / l.f1() - 1.0 } else { f64::NAN };
            if gain.is_finite() {
                type_gains[ty.index()].push(gain);
            }
            rows.push(vec![
                d.name.clone(),
                ty.code().to_string(),
                f2(l.precision()),
                f2(l.recall()),
                f2(l.f1()),
                secs(run.timings.local),
                f2(g.precision()),
                f2(g.recall()),
                f2(g.f1()),
                secs(run.timings.global),
                if gain.is_finite() { pct(gain) } else { "n/a".to_string() },
                secs(run.timings.global),
            ]);
        }
        let mg = if ls.macro_f1() > 0.0 { gs.macro_f1() / ls.macro_f1() - 1.0 } else { f64::NAN };
        if mg.is_finite() {
            macro_gains.push(mg);
            if di < 4 {
                streaming_gains.push(mg);
            }
        }
    }
    let mut out = render_table(
        "Table IV: Ablation — effectiveness and execution time (s), Local vs Global NER",
        &[
            "Dataset", "Type", "L-P", "L-R", "L-F1", "L-Time", "G-P", "G-R", "G-F1", "G-Time",
            "F1 Gain", "Overhead",
        ],
        &rows,
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.push_str(&format!("\nAverage Macro-F1 gain (all datasets): {}\n", pct(mean(&macro_gains))));
    out.push_str(&format!(
        "Average Macro-F1 gain (streaming D1-D4): {}\n",
        pct(mean(&streaming_gains))
    ));
    for ty in EntityType::ALL {
        out.push_str(&format!(
            "Average F1 gain {}: {}\n",
            ty.code(),
            pct(mean(&type_gains[ty.index()]))
        ));
    }
    out
}

/// Table V: NER Globalizer vs global NER baselines.
pub fn table5(
    exp: &Experiment,
    runs: &EvalRuns,
    akbik: &AkbikTagger,
    hire: &HireNer,
    docl: &DoclNer<TokenEncoder>,
) -> String {
    let mut rows = Vec::new();
    for (d, run) in exp.data.eval.iter().zip(&runs.full) {
        let gold = Experiment::gold_of(d);
        let sentences: Vec<Vec<String>> = d.tweets.iter().map(|t| t.tokens.clone()).collect();
        {
            let s = evaluate(&gold, &run.global);
            let mut row = vec![d.name.clone(), "NER Globalizer".to_string()];
            row.extend(per_type_f1(&s));
            row.push(f2(s.macro_f1()));
            rows.push(row);
        }
        for (name, tags) in [
            ("HIRE-NER", hire.tag_document(&sentences)),
            ("DocL-NER", docl.tag_document(&sentences)),
            ("Akbik et al.", akbik.tag_document(&sentences)),
        ] {
            let pred: Vec<Vec<Span>> = tags.iter().map(|t| decode_bio(t)).collect();
            let s = evaluate(&gold, &pred);
            let mut row = vec![d.name.clone(), name.to_string()];
            row.extend(per_type_f1(&s));
            row.push(f2(s.macro_f1()));
            rows.push(row);
        }
    }
    render_table(
        "Table V: Effectiveness of Global NER systems (F1 per type, Macro-F1)",
        &["Dataset", "System", "PER", "LOC", "ORG", "MISC", "MacroF1"],
        &rows,
    )
}

/// Figure 3: component ablation over the streaming datasets (D1–D4).
pub fn fig3(exp: &Experiment) -> String {
    let modes = [
        ("Local NER only", AblationMode::LocalOnly),
        ("+ Mention extraction", AblationMode::MentionExtraction),
        ("+ Local embedding classifier", AblationMode::LocalClassifier),
        ("Full Global NER", AblationMode::FullGlobal),
    ];
    let mut rows = Vec::new();
    for (label, mode) in modes {
        let mut per_dataset = Vec::new();
        for d in exp.data.streaming_eval() {
            let run = exp.run_pipeline(d, mode);
            let gold = Experiment::gold_of(d);
            per_dataset.push(evaluate(&gold, &run.global).macro_f1());
        }
        let mean = per_dataset.iter().sum::<f64>() / per_dataset.len() as f64;
        let mut row = vec![label.to_string()];
        row.extend(per_dataset.iter().map(|&v| f2(v)));
        row.push(f2(mean));
        rows.push(row);
    }
    render_table(
        "Figure 3: Impact of components on performance (Macro-F1, streaming datasets)",
        &["Variant", "D1", "D2", "D3", "D4", "Mean"],
        &rows,
    )
}

/// Figure 4: entity recall by gold mention frequency (bin width 5) over
/// the streaming datasets.
pub fn fig4(exp: &Experiment, runs: &EvalRuns) -> String {
    let mut gold: Vec<Vec<GoldMention>> = Vec::new();
    let mut pred: Vec<Vec<Span>> = Vec::new();
    for (d, run) in exp.data.eval.iter().zip(&runs.full).take(4) {
        for (t, p) in d.tweets.iter().zip(&run.global) {
            gold.push(t.gold.clone());
            pred.push(p.clone());
        }
    }
    let bins = recall_by_frequency(&gold, &pred, 5);
    let rows: Vec<Vec<String>> = bins
        .iter()
        .map(|b| {
            vec![
                format!("{}-{}", b.lo, b.hi),
                b.entities.to_string(),
                b.mentions.to_string(),
                f2(b.recall()),
            ]
        })
        .collect();
    render_table(
        "Figure 4: Impact of mention frequency on detecting entities (streaming datasets)",
        &["Freq bin", "#Entities", "#Mentions", "Recall"],
        &rows,
    )
}

/// §I case study: the local model alone on the Covid stream (D2).
pub fn case_study(exp: &Experiment, runs: &EvalRuns) -> String {
    let d2_idx = exp.data.eval.iter().position(|d| d.name == "D2").expect("D2 present");
    let d2 = &exp.data.eval[d2_idx];
    let gold = Experiment::gold_of(d2);
    let s = evaluate(&gold, &runs.full[d2_idx].local);
    let mut rows: Vec<Vec<String>> =
        EntityType::ALL.iter().map(|&t| vec![t.code().to_string(), f2(s.of(t).f1())]).collect();
    rows.push(vec!["Macro-F1".to_string(), f2(s.macro_f1())]);
    let mut out = render_table(
        "Case study (Sec. I): standalone Local NER on the Covid stream D2",
        &["Entity type", "F1"],
        &rows,
    );
    out.push_str(
        "\nExpected shape: modest Macro-F1 with MISC far below PER — the\n\
         inconsistent-detection/mistyping behaviour that motivates Global NER.\n",
    );
    out
}

/// §VI-C error analysis over the streaming datasets.
pub fn error_analysis(exp: &Experiment, runs: &EvalRuns) -> String {
    let mut gold_m: Vec<Vec<GoldMention>> = Vec::new();
    let mut gold_s: Vec<Vec<Span>> = Vec::new();
    let mut local: Vec<Vec<Span>> = Vec::new();
    let mut global: Vec<Vec<Span>> = Vec::new();
    for (d, run) in exp.data.eval.iter().zip(&runs.full).take(4) {
        for (i, t) in d.tweets.iter().enumerate() {
            gold_m.push(t.gold.clone());
            gold_s.push(t.gold_spans());
            local.push(run.local[i].clone());
            global.push(run.global[i].clone());
        }
    }
    let miss = fully_missed_entities(&gold_m, &local);
    let breakdown = mistype_stats(&gold_s, &global);
    let confusion = ngl_eval::ConfusionMatrix::build(&gold_s, &global);
    let rows = vec![
        vec![
            "Mentions of entities fully missed by Local NER".to_string(),
            format!(
                "{} of {} ({:.2}%) from {} of {} entities",
                miss.mentions_lost,
                miss.total_mentions,
                miss.mention_loss_rate() * 100.0,
                miss.entities_fully_missed,
                miss.total_entities
            ),
        ],
        vec![
            "Mentions mistyped by the Entity Classifier".to_string(),
            format!(
                "{} of {} ({:.2}%)",
                breakdown.mistyped,
                breakdown.total_gold(),
                breakdown.mistype_rate() * 100.0
            ),
        ],
        vec![
            "Correct / partial / missed / spurious".to_string(),
            format!(
                "{} / {} / {} / {}",
                breakdown.correct, breakdown.partial, breakdown.missed, breakdown.spurious
            ),
        ],
    ];
    let mut out = render_table(
        "Error analysis (Sec. VI-C), streaming datasets D1-D4",
        &["Error source", "Count"],
        &rows,
    );
    out.push_str(
        "
Mention-level confusion (gold rows, predicted columns):
",
    );
    out.push_str(&confusion.render());
    out
}

/// §VI-D EMD (boundary-only) gains of the full pipeline over Local NER.
pub fn emd_gains(exp: &Experiment, runs: &EvalRuns) -> String {
    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for (d, run) in exp.data.eval.iter().zip(&runs.full) {
        let gold = Experiment::gold_of(d);
        let l = evaluate_emd(&gold, &run.local);
        let g = evaluate_emd(&gold, &run.global);
        let gain = if l.f1() > 0.0 { g.f1() / l.f1() - 1.0 } else { f64::NAN };
        if gain.is_finite() {
            gains.push(gain);
        }
        rows.push(vec![
            d.name.clone(),
            f2(l.f1()),
            f2(g.f1()),
            if gain.is_finite() { pct(gain) } else { "n/a".into() },
        ]);
    }
    let mut out = render_table(
        "EMD gains (Sec. VI-D): boundary-only F1, Local vs Global",
        &["Dataset", "Local EMD F1", "Global EMD F1", "Gain"],
        &rows,
    );
    out.push_str(&format!(
        "\nAverage EMD F1 gain: {}\n",
        pct(gains.iter().sum::<f64>() / gains.len().max(1) as f64)
    ));
    out
}

/// Ablation sweeps over the pipeline's design parameters — the tuning
/// choices §V-C/§V-D leave open (clustering threshold below the triplet
/// margin, the classifier confidence guard, the scan window k). Reports
/// mean macro-F1 over the streaming datasets.
pub fn ablations(exp: &Experiment) -> String {
    let run_with = |cfg: ngl_core::GlobalizerConfig| -> f64 {
        let mut f1s = Vec::new();
        for d in exp.data.streaming_eval() {
            let mut p = ngl_core::NerGlobalizer::new(
                exp.local.clone(),
                exp.phrase.clone(),
                exp.classifier.clone(),
                cfg,
            );
            let toks: Vec<Vec<String>> = d.tweets.iter().map(|t| t.tokens.clone()).collect();
            p.ingest(toks, None);
            let out = p.finalize();
            let gold = Experiment::gold_of(d);
            f1s.push(evaluate(&gold, &out).macro_f1());
        }
        f1s.iter().sum::<f64>() / f1s.len() as f64
    };

    let base = ngl_core::GlobalizerConfig::default();
    let mut rows = Vec::new();
    for t in [0.3f32, 0.5, 0.7, 0.9] {
        let f1 = run_with(ngl_core::GlobalizerConfig { cluster_threshold: t, ..base });
        rows.push(vec![
            "cluster_threshold".to_string(),
            format!("{t}"),
            f2(f1),
            if (t - base.cluster_threshold).abs() < 1e-6 {
                "default".into()
            } else {
                String::new()
            },
        ]);
    }
    for c in [0.0f32, 0.35, 0.5, 0.65] {
        let f1 = run_with(ngl_core::GlobalizerConfig { min_confidence: c, ..base });
        rows.push(vec![
            "min_confidence".to_string(),
            format!("{c}"),
            f2(f1),
            if (c - base.min_confidence).abs() < 1e-6 { "default".into() } else { String::new() },
        ]);
    }
    for k in [2usize, 4, 6] {
        let f1 = run_with(ngl_core::GlobalizerConfig { max_mention_len: k, ..base });
        rows.push(vec![
            "max_mention_len".to_string(),
            format!("{k}"),
            f2(f1),
            if k == base.max_mention_len { "default".into() } else { String::new() },
        ]);
    }
    // Batch normalization in the Phrase Embedder (§VI) requires
    // retraining the Global NER stack.
    {
        let mut cfg = Experiment::globalizer_config(
            exp.seed,
            exp.scale,
            ngl_core::PhraseLoss::Triplet { margin: 1.0 },
        );
        cfg.phrase.use_batch_norm = true;
        let trained = ngl_core::train_globalizer(&exp.local, &exp.data.d5, &cfg);
        let mut f1s = Vec::new();
        for d in exp.data.streaming_eval() {
            let mut p = ngl_core::NerGlobalizer::new(
                exp.local.clone(),
                trained.phrase.clone(),
                trained.classifier.clone(),
                base,
            );
            let toks: Vec<Vec<String>> = d.tweets.iter().map(|t| t.tokens.clone()).collect();
            p.ingest(toks, None);
            let out = p.finalize();
            let gold = Experiment::gold_of(d);
            f1s.push(evaluate(&gold, &out).macro_f1());
        }
        let f1 = f1s.iter().sum::<f64>() / f1s.len() as f64;
        rows.push(vec!["phrase batch-norm".to_string(), "on".to_string(), f2(f1), String::new()]);
        let base_f1 = run_with(base);
        rows.push(vec![
            "phrase batch-norm".to_string(),
            "off".to_string(),
            f2(base_f1),
            "default".to_string(),
        ]);
    }
    render_table(
        "Design-choice ablations (mean streaming macro-F1)",
        &["Parameter", "Value", "MacroF1", ""],
        &rows,
    )
}

/// Measured cost of the durable-store path: bytes appended to the WAL
/// per ingested batch (the "delta checkpoint") against the size of a
/// full state snapshot at the same point in the stream.
pub struct StoreBenchResult {
    /// Tweets streamed through the durable pipeline.
    pub tweets: usize,
    /// Batches ingested (one delta checkpoint each).
    pub batches: usize,
    /// WAL bytes appended for the final batch + finalize.
    pub delta_bytes_last: u64,
    /// Mean WAL bytes per batch across the whole run.
    pub delta_bytes_avg: f64,
    /// Size of the last snapshot file written.
    pub snapshot_bytes_last: u64,
    /// Tweet-log bytes appended over the run (each record once).
    pub tweet_log_bytes: u64,
    /// Total WAL bytes appended over the run.
    pub wal_bytes_total: u64,
    /// Full snapshots written (one every `checkpoint_every` batches).
    pub snapshots: u64,
    /// Whether the per-batch delta stayed below the snapshot size —
    /// the sublinearity claim the store exists to deliver.
    pub sublinear: bool,
    /// Final state re-encoded through the (quantized) snapshot codec.
    pub snapshot_q_bytes: u64,
    /// Transient IO errors absorbed by retry during the run (should be
    /// 0 on a healthy disk).
    pub io_retries: u64,
    /// Transient IO errors that exhausted the retry budget.
    pub io_retry_exhausted: u64,
}

/// Streams the eval datasets through a [`ngl_core::DurableGlobalizer`]
/// rooted at `dir` and records the delta-vs-snapshot byte costs.
/// Batches of 40 tweets; every batch is finalized so each one pays a
/// full delta checkpoint.
pub fn store_bench(
    exp: &Experiment,
    dir: &std::path::Path,
    checkpoint_every: usize,
) -> Result<StoreBenchResult, String> {
    let pipeline = ngl_core::NerGlobalizer::new(
        exp.local.clone(),
        exp.phrase.clone(),
        exp.classifier.clone(),
        ngl_core::GlobalizerConfig::default(),
    );
    let (mut durable, _) = ngl_core::DurableGlobalizer::open(pipeline, dir, checkpoint_every)
        .map_err(|e| e.to_string())?;

    let mut stream: Vec<Vec<String>> = Vec::new();
    for d in &exp.data.eval {
        stream.extend(d.tweets.iter().map(|t| t.tokens.clone()));
        if stream.len() >= 1200 {
            break;
        }
    }
    let mut batches = 0usize;
    let mut delta_total = 0u64;
    let mut delta_last = 0u64;
    for batch in stream.chunks(40) {
        durable.ingest(batch.to_vec(), None).map_err(|e| e.to_string())?;
        durable.finalize().map_err(|e| e.to_string())?;
        delta_last = durable.stats().delta_bytes_last;
        delta_total += delta_last;
        batches += 1;
    }
    if durable.stats().snapshots == 0 {
        // Short quick-scale streams may finish before the first
        // scheduled snapshot; take one now so the comparison exists.
        durable.snapshot().map_err(|e| e.to_string())?;
    }
    let stats = durable.stats();
    Ok(StoreBenchResult {
        tweets: stream.len(),
        batches,
        delta_bytes_last: delta_last,
        delta_bytes_avg: delta_total as f64 / batches.max(1) as f64,
        snapshot_bytes_last: stats.snapshot_bytes_last,
        tweet_log_bytes: stats.tweet_log_bytes,
        wal_bytes_total: stats.wal_bytes_total,
        snapshots: stats.snapshots,
        sublinear: delta_last < stats.snapshot_bytes_last,
        snapshot_q_bytes: durable.inner().export_state_bytes().len() as u64,
        io_retries: durable.io_stats().transient_retries,
        io_retry_exhausted: durable.io_stats().retry_exhausted,
    })
}

/// Measured cost of the two tail attacks of the persistent-executor
/// PR: per-call thread-spawn overhead on small batches (the reason the
/// worker pool exists) and the giant-surface clustering tail (the
/// reason intra-surface parallelism exists).
pub struct ParallelBenchResult {
    /// Items per submission in the spawn-overhead comparison.
    pub batch: usize,
    /// Submissions timed per side.
    pub rounds: usize,
    /// Total seconds for `rounds` submissions on the persistent pool.
    pub pooled_spawn_s: f64,
    /// Total seconds for the same work with threads spawned per call
    /// (the pre-pool executor's model).
    pub scoped_spawn_s: f64,
    /// `scoped_spawn_s / pooled_spawn_s` — how much the pool saves on
    /// small batches.
    pub spawn_speedup: f64,
    /// Mention count of the synthetic giant surface.
    pub giant_points: usize,
    /// Agglomerative clustering of the giant surface, sequential.
    pub giant_1t_s: f64,
    /// Same clustering on a 4-thread executor (chunked distance fill).
    pub giant_4t_s: f64,
    /// `giant_1t_s / giant_4t_s`.
    pub giant_speedup: f64,
    /// `std::thread::available_parallelism()` of the host — speedups
    /// are only meaningful when this is > 1.
    pub parallelism: usize,
}

/// The old executor's model, reconstructed as a baseline: spawn scoped
/// worker threads for every call, share work through an atomic cursor,
/// throw the threads away afterwards.
fn scoped_spawn_par_map(items: &[u64], threads: usize, work: &(impl Fn(u64) -> u64 + Sync)) -> u64 {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let acc = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local = local.wrapping_add(work(items[i]));
                }
                acc.fetch_add(local, Ordering::Relaxed);
            });
        }
    });
    acc.load(Ordering::Relaxed)
}

/// Runs both tail benchmarks. Self-contained — needs no trained
/// [`Experiment`], so a `parallel`-only reproduce invocation skips the
/// (expensive) experiment build entirely.
pub fn parallel_bench() -> ParallelBenchResult {
    use ngl_runtime::rng::SplitMix64;
    use ngl_runtime::Executor;
    use std::time::Instant;

    // -- spawn overhead: many small batches ------------------------------
    // The work per item is deliberately tiny; at batch ≤ 64 the
    // dominant cost of the old executor was thread spawn + join.
    const BATCH: usize = 64;
    const ROUNDS: usize = 300;
    let items: Vec<u64> = (0..BATCH as u64).collect();
    let work = |x: u64| {
        let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for _ in 0..64 {
            h ^= h >> 27;
            h = h.wrapping_mul(0x3C79_AC49_2BA7_B653);
        }
        h
    };

    let pooled = Executor::new(2);
    let wrapping_sum = |v: Vec<u64>| v.into_iter().fold(0u64, u64::wrapping_add);
    let mut sink = 0u64;
    // Warm-up: workers parked, caches hot, so the loop times the
    // steady state the pool is designed for.
    sink = sink.wrapping_add(wrapping_sum(pooled.par_map(items.clone(), |_, x| work(x))));
    let t = Instant::now();
    for _ in 0..ROUNDS {
        sink = sink.wrapping_add(wrapping_sum(pooled.par_map(items.clone(), |_, x| work(x))));
    }
    let pooled_spawn_s = t.elapsed().as_secs_f64();

    sink = sink.wrapping_add(scoped_spawn_par_map(&items, 2, &work));
    let t = Instant::now();
    for _ in 0..ROUNDS {
        sink = sink.wrapping_add(scoped_spawn_par_map(&items, 2, &work));
    }
    let scoped_spawn_s = t.elapsed().as_secs_f64();
    std::hint::black_box(sink);

    // -- giant-surface clustering tail -----------------------------------
    // One skewed surface with hundreds of mentions: inside
    // agglomerative linkage the O(n²·d) pair-distance fill and the
    // O(n·d) refresh after each merge make it the slowest surface of a
    // finalize. Same inputs sequentially and on 4
    // threads; outputs must agree (only the fill is chunked, and it is
    // bitwise-identical by construction).
    const GIANT: usize = 320;
    const DIM: usize = 16;
    let mut rng = SplitMix64::new(0x61A7);
    let points: Vec<Vec<f32>> = (0..GIANT)
        .map(|_| (0..DIM).map(|_| (rng.next_below(1000) as f32) / 1000.0).collect())
        .collect();
    let threshold = 0.6;

    let t = Instant::now();
    let seq = ngl_cluster::agglomerative_exec(&points, threshold, &Executor::sequential());
    let giant_1t_s = t.elapsed().as_secs_f64();
    let par_exec = Executor::new(4);
    let t = Instant::now();
    let par = ngl_cluster::agglomerative_exec(&points, threshold, &par_exec);
    let giant_4t_s = t.elapsed().as_secs_f64();
    assert_eq!(
        seq.assignments, par.assignments,
        "parallel giant-surface clustering must be bitwise identical"
    );

    ParallelBenchResult {
        batch: BATCH,
        rounds: ROUNDS,
        pooled_spawn_s,
        scoped_spawn_s,
        spawn_speedup: scoped_spawn_s / pooled_spawn_s.max(f64::MIN_POSITIVE),
        giant_points: GIANT,
        giant_1t_s,
        giant_4t_s,
        giant_speedup: giant_1t_s / giant_4t_s.max(f64::MIN_POSITIVE),
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Renders the [`parallel_bench`] comparison as a two-row bench table.
pub fn parallel_table(r: &ParallelBenchResult) -> String {
    let rows = vec![
        vec![
            "spawn_overhead".to_string(),
            format!("{} items x {}", r.batch, r.rounds),
            secs(std::time::Duration::from_secs_f64(r.scoped_spawn_s)),
            secs(std::time::Duration::from_secs_f64(r.pooled_spawn_s)),
            format!("{:.2}x", r.spawn_speedup),
        ],
        vec![
            "giant_surface_tail".to_string(),
            format!("{} mentions", r.giant_points),
            secs(std::time::Duration::from_secs_f64(r.giant_1t_s)),
            secs(std::time::Duration::from_secs_f64(r.giant_4t_s)),
            format!("{:.2}x", r.giant_speedup),
        ],
    ];
    render_table(
        &format!("Persistent executor: tail benchmarks (host parallelism {})", r.parallelism),
        &["Bench", "Workload", "Baseline", "Pooled", "Speedup"],
        &rows,
    )
}

/// Renders the [`store_bench`] comparison as a one-row bench table.
pub fn store_table(r: &StoreBenchResult) -> String {
    let rows = vec![vec![
        r.tweets.to_string(),
        r.batches.to_string(),
        format!("{:.0}", r.delta_bytes_avg),
        r.delta_bytes_last.to_string(),
        r.snapshot_bytes_last.to_string(),
        r.tweet_log_bytes.to_string(),
        format!("{:.4}", r.delta_bytes_last as f64 / r.snapshot_bytes_last.max(1) as f64),
        if r.sublinear { "yes" } else { "NO" }.to_string(),
        format!("{}/{}", r.io_retries, r.io_retry_exhausted),
    ]];
    render_table(
        "Durable store: delta WAL bytes per batch vs snapshot, and tweet-log bytes",
        &[
            "Tweets",
            "Batches",
            "AvgDeltaB",
            "LastDeltaB",
            "SnapshotB",
            "TweetLogB",
            "Ratio",
            "Sublinear",
            "IoRetry",
        ],
        &rows,
    )
}

/// Measured cost of the fused-kernel PR's two claims: the one-vs-many
/// cosine block scan against the per-pair naive loop it replaced, and
/// the byte footprint of i8-quantized embedding storage against f32.
pub struct KernelBenchResult {
    /// Rows in the block scan.
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Full scans timed per side.
    pub reps: usize,
    /// Total seconds for `reps` naive per-pair scans (dot + two norms
    /// recomputed per pair in plain scalar loops — the pre-kernel code).
    pub naive_scan_s: f64,
    /// Total seconds for `reps` [`ngl_nn::kernels::cosine_best_of`]
    /// block scans under the dispatched (SIMD-capable) kernels.
    pub block_scan_s: f64,
    /// `naive_scan_s / block_scan_s`.
    pub kernel_speedup: f64,
    /// Quantized payload bytes for all rows (4-byte scale + 1 B/elem).
    pub quantized_bytes: u64,
    /// The same rows stored as raw `f32`.
    pub f32_bytes: u64,
    /// `quantized_bytes / f32_bytes` — the at-rest shrink factor.
    pub quantized_bytes_ratio: f64,
    /// Forward passes timed per side through the encoder's three dense
    /// shapes, each over a [`DENSE_ROWS`]-row input.
    pub dense_inputs: usize,
    /// Total seconds for those passes through the `ikj` reference loop
    /// (the pre-kernel `Matrix::matmul`).
    pub ikj_forward_s: f64,
    /// Total seconds for the same passes through the dispatched
    /// [`ngl_nn::kernels::matmul`].
    pub kernel_forward_s: f64,
    /// `ikj_forward_s / kernel_forward_s`.
    pub matmul_speedup: f64,
    /// `std::thread::available_parallelism()` of the host; timing-based
    /// speedups are only asserted on multicore hosts (CI convention).
    pub parallelism: usize,
}

/// The local encoder's dense shapes `(in, out)`: context → trunk,
/// trunk → embedding, embedding → BIO logits.
pub const DENSE_SHAPES: [(usize, usize); 3] = [(83, 48), (48, 32), (32, 9)];

/// Rows per input of the dense-forward bench (a ten-token tweet).
pub const DENSE_ROWS: usize = 10;

/// `a @ b` through the `ikj` loop that `Matrix::matmul` ran before the
/// blocked kernel: the reference side of the dense-forward bench.
fn matmul_ikj(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (p, &x) in a_row.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (o, &y) in out_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *o += x * y;
            }
        }
    }
}

/// Signature shared by both sides of the dense-forward bench.
type MatmulFn = fn(&[f32], &[f32], usize, usize, &mut [f32]);

/// One encoder forward pass through `mm`: three matmuls with a ReLU
/// after the first, into the reused buffers `h`. Returns the logit sum.
fn dense_forward(mm: MatmulFn, x: &[f32], w: &[Vec<f32>; 3], h: &mut [Vec<f32>; 3]) -> f32 {
    let [(k0, n0), (k1, n1), (k2, n2)] = DENSE_SHAPES;
    let [h0, h1, h2] = h;
    mm(x, &w[0], k0, n0, h0);
    h0.iter_mut().for_each(|v| *v = v.max(0.0));
    mm(h0, &w[1], k1, n1, h1);
    mm(h1, &w[2], k2, n2, h2);
    h2.iter().sum()
}

/// Runs the kernel benchmarks. Self-contained — needs no trained
/// [`Experiment`], so a `kernels`-only reproduce invocation skips the
/// (expensive) experiment build entirely.
pub fn kernel_bench() -> KernelBenchResult {
    use ngl_nn::kernels::{self, QuantizedVec};
    use ngl_runtime::rng::SplitMix64;
    use std::time::Instant;

    const ROWS: usize = 512;
    const DIM: usize = 64;
    const REPS: usize = 2000;
    let mut rng = SplitMix64::new(0xD07);
    let gen = |rng: &mut SplitMix64| -> Vec<f32> {
        (0..DIM).map(|_| (rng.next_below(2000) as f32) / 1000.0 - 1.0).collect()
    };
    let query = gen(&mut rng);
    let rows: Vec<Vec<f32>> = (0..ROWS).map(|_| gen(&mut rng)).collect();

    // The pre-kernel consumer pattern: an independent cosine per pair,
    // each recomputing both norms in a plain scalar loop.
    let naive_cosine = |a: &[f32], b: &[f32]| -> f32 {
        let (mut d, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
        for (x, y) in a.iter().zip(b) {
            d += x * y;
            na += x * x;
            nb += y * y;
        }
        (d / (na.sqrt() * nb.sqrt()).max(1e-12)).clamp(-1.0, 1.0)
    };
    let naive_scan = |q: &[f32], rows: &[Vec<f32>]| -> (usize, f32) {
        let mut best = (0usize, f32::NEG_INFINITY);
        for (i, r) in rows.iter().enumerate() {
            let s = naive_cosine(q, r);
            if s > best.1 {
                best = (i, s);
            }
        }
        best
    };

    // Warm both sides once, and check they agree on the winner before
    // trusting the timings.
    let (ni, ns) = naive_scan(&query, &rows);
    let (bi, bs) = kernels::cosine_best_of(&query, &rows).expect("non-empty scan");
    assert_eq!(ni, bi, "block scan and naive scan must pick the same row");
    assert!((ns - bs).abs() < 1e-5, "similarities diverged: {ns} vs {bs}");

    let mut sink = 0.0f32;
    let t = Instant::now();
    for _ in 0..REPS {
        sink += naive_scan(std::hint::black_box(&query), std::hint::black_box(&rows)).1;
    }
    let naive_scan_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..REPS {
        sink += kernels::cosine_best_of(std::hint::black_box(&query), std::hint::black_box(&rows))
            .expect("non-empty scan")
            .1;
    }
    let block_scan_s = t.elapsed().as_secs_f64();

    let quantized_bytes: u64 =
        rows.iter().map(|r| QuantizedVec::quantize(r).payload_bytes() as u64).sum();
    let f32_bytes = (ROWS * DIM * 4) as u64;

    // Dense forward: the encoder's three shapes over ten-token inputs,
    // cycling through a small pool so the inputs stay cache-resident
    // as the encoder's weights do. Context rows look like the
    // encoder's: dense window embeddings, then 0/1 shape features that
    // are mostly zero.
    const DENSE_INPUTS: usize = 10_000;
    const POOL: usize = 64;
    let w: [Vec<f32>; 3] = DENSE_SHAPES
        .map(|(k, n)| (0..k * n).map(|_| (rng.next_below(2000) as f32) / 4000.0 - 0.25).collect());
    let (k0, _) = DENSE_SHAPES[0];
    let inputs: Vec<Vec<f32>> = (0..POOL)
        .map(|_| {
            (0..DENSE_ROWS * k0)
                .map(|i| match (i % k0 < k0 - SHAPE_DIM, rng.next_below(5)) {
                    (true, _) => (rng.next_below(2000) as f32) / 1000.0 - 1.0,
                    (false, 0) => 1.0,
                    (false, _) => 0.0,
                })
                .collect()
        })
        .collect();
    let kernel: MatmulFn = |a, b, k, n, out| kernels::matmul(a, b, a.len() / k, k, n, out);
    let mut h = DENSE_SHAPES.map(|(_, n)| vec![0.0f32; DENSE_ROWS * n]);
    let mut h_ref = h.clone();
    for x in &inputs {
        dense_forward(matmul_ikj, x, &w, &mut h_ref);
        dense_forward(kernel, x, &w, &mut h);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&h[2]), bits(&h_ref[2]), "blocked matmul must match the ikj loop bitwise");
    }
    let mut time_forward = |mm: MatmulFn, h: &mut [Vec<f32>; 3]| {
        let t = Instant::now();
        for i in 0..DENSE_INPUTS {
            sink += dense_forward(mm, std::hint::black_box(&inputs[i % POOL]), &w, h);
        }
        t.elapsed().as_secs_f64()
    };
    let ikj_forward_s = time_forward(matmul_ikj, &mut h_ref);
    let kernel_forward_s = time_forward(kernel, &mut h);
    std::hint::black_box(sink);

    KernelBenchResult {
        rows: ROWS,
        dim: DIM,
        reps: REPS,
        naive_scan_s,
        block_scan_s,
        kernel_speedup: naive_scan_s / block_scan_s.max(f64::MIN_POSITIVE),
        quantized_bytes,
        f32_bytes,
        quantized_bytes_ratio: quantized_bytes as f64 / f32_bytes.max(1) as f64,
        dense_inputs: DENSE_INPUTS,
        ikj_forward_s,
        kernel_forward_s,
        matmul_speedup: ikj_forward_s / kernel_forward_s.max(f64::MIN_POSITIVE),
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Renders the [`kernel_bench`] comparison as a three-row bench table.
pub fn kernel_table(r: &KernelBenchResult) -> String {
    let rows = vec![
        vec![
            "cosine_block_scan".to_string(),
            format!("{}x{} x {}", r.rows, r.dim, r.reps),
            secs(std::time::Duration::from_secs_f64(r.naive_scan_s)),
            secs(std::time::Duration::from_secs_f64(r.block_scan_s)),
            format!("{:.2}x", r.kernel_speedup),
        ],
        vec![
            "dense_forward".to_string(),
            format!(
                "{} x {}x{DENSE_ROWS} rows",
                DENSE_SHAPES.map(|(k, n)| format!("{k}x{n}")).join("·"),
                r.dense_inputs
            ),
            secs(std::time::Duration::from_secs_f64(r.ikj_forward_s)),
            secs(std::time::Duration::from_secs_f64(r.kernel_forward_s)),
            format!("{:.2}x", r.matmul_speedup),
        ],
        vec![
            "quantized_storage".to_string(),
            format!("{} rows x {} dims", r.rows, r.dim),
            format!("{} B", r.f32_bytes),
            format!("{} B", r.quantized_bytes),
            format!("{:.3} of f32", r.quantized_bytes_ratio),
        ],
    ];
    render_table(
        &format!(
            "Fused kernels: block scan & quantized storage (host parallelism {})",
            r.parallelism
        ),
        &["Bench", "Workload", "Baseline", "Fused", "Gain"],
        &rows,
    )
}

/// The serving-layer SLO benchmark of [`serve_bench`]: the same
/// Zipfian client burst replayed against a batching server
/// (`max_batch` 64) and a one-tweet-per-batch server, with per-side
/// throughput and ingest-to-ack latency percentiles.
pub struct ServeBenchResult {
    /// Concurrent client threads per side.
    pub writers: usize,
    /// Requests per writer.
    pub requests: usize,
    /// Tweets per request body.
    pub lines: usize,
    /// Total tweets per side (`writers * requests * lines`).
    pub tweets: usize,
    /// Distinct Zipf-sampled entity surfaces in the burst.
    pub surfaces: usize,
    /// Wall-clock seconds for the batching side.
    pub batched_s: f64,
    /// Tweets per second, batching side.
    pub batched_rps: f64,
    /// Ingest-to-ack latency percentiles (µs), batching side.
    pub batched_p50_us: u64,
    pub batched_p99_us: u64,
    /// Batches the batching side committed (coalescing evidence).
    pub batched_batches: u64,
    /// Largest batch it coalesced.
    pub batched_max_batch: u64,
    /// Wall-clock seconds for the one-tweet-per-batch side.
    pub single_s: f64,
    /// Tweets per second, one-tweet-per-batch side.
    pub single_rps: f64,
    /// Ingest-to-ack latency percentiles (µs), one-per-batch side.
    pub single_p50_us: u64,
    pub single_p99_us: u64,
    /// `batched_rps / single_rps` — what server-side coalescing buys.
    pub batching_speedup: f64,
    /// Host parallelism; speedups are only asserted on multicore.
    pub parallelism: usize,
}

/// One side of the serving benchmark: a fresh store + server with the
/// given `max_batch`, hit by the deterministic Zipfian burst.
struct ServeSide {
    elapsed_s: f64,
    p50_us: u64,
    p99_us: u64,
    batches: u64,
    max_batch: u64,
}

const SERVE_WRITERS: usize = 4;
const SERVE_REQUESTS: usize = 16;
const SERVE_LINES: usize = 8;
const SERVE_SURFACES: usize = 64;

/// Zipf-like (log-uniform) surface index in `0..n` — a heavy head and
/// a long tail, the shape of a trending-entity burst.
fn zipf_index(rng: &mut ngl_runtime::rng::SplitMix64, n: usize) -> usize {
    let r = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    ((n as f64).powf(r) as usize).min(n - 1)
}

fn serve_burst_tweet(rng: &mut ngl_runtime::rng::SplitMix64, id: u64) -> String {
    let k = zipf_index(rng, SERVE_SURFACES);
    let places = ["Paris", "Oslo", "Lima", "Cairo"];
    format!(
        "{id}\tCelebrity{k} Star{k} trending in {} now t{id}",
        places[(rng.next_u64() % 4) as usize]
    )
}

fn serve_side(max_batch: usize, seed: u64) -> ServeSide {
    use ngl_core::{DurableGlobalizer, GlobalizerConfig, PoolPolicy};
    use ngl_serve::{client::Client, devstack, ServeConfig, Server};

    let dir =
        std::env::temp_dir().join(format!("ngl-serve-bench-{}-{max_batch}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = GlobalizerConfig { pool: PoolPolicy::Shared, ..Default::default() };
    let (durable, recovery) =
        DurableGlobalizer::open(devstack::pipeline(cfg), &dir, 1_000_000).expect("open store");
    let server = Server::start(
        durable,
        recovery,
        ServeConfig {
            max_batch,
            max_delay_ms: 2,
            queue_cap: 4096,
            // Finalize cadence is per *batch* on both sides — part of
            // what coalescing amortizes.
            finalize_every: 16,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr().to_string();

    let t = std::time::Instant::now();
    let handles: Vec<_> = (0..SERVE_WRITERS)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut rng =
                    ngl_runtime::rng::SplitMix64::new(seed ^ (w as u64).wrapping_mul(0x9E37));
                let mut client = Client::new(addr);
                for r in 0..SERVE_REQUESTS {
                    let body: String = (0..SERVE_LINES)
                        .map(|l| {
                            let id = (w * 1_000_000 + r * SERVE_LINES + l) as u64;
                            format!("{}\n", serve_burst_tweet(&mut rng, id))
                        })
                        .collect();
                    let (status, body) = client.ingest(&body).expect("ingest");
                    assert_eq!(status, 200, "bench burst must not shed: {body}");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("bench writer");
    }
    let elapsed_s = t.elapsed().as_secs_f64();

    let stats = server.stats();
    let (p50_us, p99_us) = stats.ack_latency_percentiles_us();
    let accepted = stats.accepted.load(std::sync::atomic::Ordering::Relaxed);
    let tweets = (SERVE_WRITERS * SERVE_REQUESTS * SERVE_LINES) as u64;
    assert_eq!(accepted, tweets, "every bench tweet must be acked");
    let batches = stats.batches.load(std::sync::atomic::Ordering::Relaxed);
    let max_batch = stats.max_batch.load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    ServeSide { elapsed_s, p50_us, p99_us, batches, max_batch }
}

/// Runs the Zipfian burst against the batching and one-tweet-per-batch
/// servers and reports throughput + ack-latency SLO rows.
pub fn serve_bench() -> ServeBenchResult {
    let tweets = SERVE_WRITERS * SERVE_REQUESTS * SERVE_LINES;
    let batched = serve_side(64, 0x5E47E);
    let single = serve_side(1, 0x5E47E);
    let batched_rps = tweets as f64 / batched.elapsed_s.max(f64::MIN_POSITIVE);
    let single_rps = tweets as f64 / single.elapsed_s.max(f64::MIN_POSITIVE);
    ServeBenchResult {
        writers: SERVE_WRITERS,
        requests: SERVE_REQUESTS,
        lines: SERVE_LINES,
        tweets,
        surfaces: SERVE_SURFACES,
        batched_s: batched.elapsed_s,
        batched_rps,
        batched_p50_us: batched.p50_us,
        batched_p99_us: batched.p99_us,
        batched_batches: batched.batches,
        batched_max_batch: batched.max_batch,
        single_s: single.elapsed_s,
        single_rps,
        single_p50_us: single.p50_us,
        single_p99_us: single.p99_us,
        batching_speedup: batched_rps / single_rps.max(f64::MIN_POSITIVE),
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Renders the [`serve_bench`] SLO comparison as a two-row table.
pub fn serve_table(r: &ServeBenchResult) -> String {
    let rows = vec![
        vec![
            "batched_ingest".to_string(),
            format!("{} tweets, max_batch 64", r.tweets),
            format!("{:.0} tw/s", r.batched_rps),
            format!("{} us", r.batched_p50_us),
            format!("{} us", r.batched_p99_us),
            format!("{:.2}x", r.batching_speedup),
        ],
        vec![
            "one_per_batch".to_string(),
            format!("{} tweets, max_batch 1", r.tweets),
            format!("{:.0} tw/s", r.single_rps),
            format!("{} us", r.single_p50_us),
            format!("{} us", r.single_p99_us),
            "1.00x".to_string(),
        ],
    ];
    render_table(
        &format!(
            "Serving layer: Zipfian burst, {} writers x {} reqs x {} lines \
             (host parallelism {})",
            r.writers, r.requests, r.lines, r.parallelism
        ),
        &["Bench", "Workload", "Throughput", "p50 ack", "p99 ack", "Speedup"],
        &rows,
    )
}

/// The sharded-serving benchmark of [`shard_bench`]: the same Zipfian
/// client burst replayed against a 1-shard and an N-shard server, with
/// per-side throughput and ingest-to-ack latency percentiles.
pub struct ShardBenchResult {
    /// Concurrent client threads per side.
    pub writers: usize,
    /// Requests per writer.
    pub requests: usize,
    /// Tweets per request body.
    pub lines: usize,
    /// Total tweets per side (`writers * requests * lines`).
    pub tweets: usize,
    /// Shard count on the sharded side.
    pub shards: u32,
    /// Wall-clock seconds for the 1-shard side.
    pub single_s: f64,
    /// Tweets per second, 1-shard side.
    pub single_rps: f64,
    /// Ingest-to-ack latency percentiles (µs), 1-shard side.
    pub single_p50_us: u64,
    pub single_p99_us: u64,
    /// Wall-clock seconds for the N-shard side.
    pub sharded_s: f64,
    /// Tweets per second, N-shard side.
    pub sharded_rps: f64,
    /// Ingest-to-ack latency percentiles (µs), N-shard side.
    pub sharded_p50_us: u64,
    pub sharded_p99_us: u64,
    /// `sharded_rps / single_rps` — what ownership partitioning buys.
    pub shard_speedup: f64,
    /// Host parallelism; speedups are only asserted on multicore.
    pub parallelism: usize,
}

/// One side of the sharding benchmark: a fresh sharded store + server
/// with the given shard count, hit by the deterministic Zipfian burst.
fn shard_side(shards: u32, seed: u64) -> ServeSide {
    use ngl_core::{GlobalizerConfig, PoolPolicy, ShardedGlobalizer};
    use ngl_serve::{client::Client, devstack, ServeConfig, Server};

    let dir = std::env::temp_dir().join(format!("ngl-shard-bench-{}-{shards}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = GlobalizerConfig { pool: PoolPolicy::Shared, ..Default::default() };
    let (sharded, recovery) =
        ShardedGlobalizer::open(devstack::pipeline(cfg), &dir, 1_000_000, shards)
            .expect("open sharded store");
    let server = Server::start_sharded(
        sharded,
        recovery,
        ServeConfig {
            max_batch: 64,
            max_delay_ms: 2,
            queue_cap: 4096,
            finalize_every: 16,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr().to_string();

    let t = std::time::Instant::now();
    let handles: Vec<_> = (0..SERVE_WRITERS)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut rng =
                    ngl_runtime::rng::SplitMix64::new(seed ^ (w as u64).wrapping_mul(0x9E37));
                let mut client = Client::new(addr);
                for r in 0..SERVE_REQUESTS {
                    let body: String = (0..SERVE_LINES)
                        .map(|l| {
                            let id = (w * 1_000_000 + r * SERVE_LINES + l) as u64;
                            format!("{}\n", serve_burst_tweet(&mut rng, id))
                        })
                        .collect();
                    let (status, body) = client.ingest(&body).expect("ingest");
                    assert_eq!(status, 200, "bench burst must not shed: {body}");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("bench writer");
    }
    let elapsed_s = t.elapsed().as_secs_f64();

    let stats = server.stats();
    let (p50_us, p99_us) = stats.ack_latency_percentiles_us();
    let accepted = stats.accepted.load(std::sync::atomic::Ordering::Relaxed);
    let tweets = (SERVE_WRITERS * SERVE_REQUESTS * SERVE_LINES) as u64;
    assert_eq!(accepted, tweets, "every bench tweet must be acked");
    let batches = stats.batches.load(std::sync::atomic::Ordering::Relaxed);
    let max_batch = stats.max_batch.load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    ServeSide { elapsed_s, p50_us, p99_us, batches, max_batch }
}

/// Runs the Zipfian burst against a 1-shard and a `shards`-shard server
/// and reports throughput + ack-latency rows.
pub fn shard_bench(shards: u32) -> ShardBenchResult {
    let tweets = SERVE_WRITERS * SERVE_REQUESTS * SERVE_LINES;
    let single = shard_side(1, 0x5E47E);
    let sharded = shard_side(shards, 0x5E47E);
    let single_rps = tweets as f64 / single.elapsed_s.max(f64::MIN_POSITIVE);
    let sharded_rps = tweets as f64 / sharded.elapsed_s.max(f64::MIN_POSITIVE);
    ShardBenchResult {
        writers: SERVE_WRITERS,
        requests: SERVE_REQUESTS,
        lines: SERVE_LINES,
        tweets,
        shards,
        single_s: single.elapsed_s,
        single_rps,
        single_p50_us: single.p50_us,
        single_p99_us: single.p99_us,
        sharded_s: sharded.elapsed_s,
        sharded_rps,
        sharded_p50_us: sharded.p50_us,
        sharded_p99_us: sharded.p99_us,
        shard_speedup: sharded_rps / single_rps.max(f64::MIN_POSITIVE),
        parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Renders the [`shard_bench`] comparison as a two-row table.
pub fn shard_table(r: &ShardBenchResult) -> String {
    let rows = vec![
        vec![
            format!("shards_{}", r.shards),
            format!("{} tweets, {} shards", r.tweets, r.shards),
            format!("{:.0} tw/s", r.sharded_rps),
            format!("{} us", r.sharded_p50_us),
            format!("{} us", r.sharded_p99_us),
            format!("{:.2}x", r.shard_speedup),
        ],
        vec![
            "shards_1".to_string(),
            format!("{} tweets, 1 shard", r.tweets),
            format!("{:.0} tw/s", r.single_rps),
            format!("{} us", r.single_p50_us),
            format!("{} us", r.single_p99_us),
            "1.00x".to_string(),
        ],
    ];
    render_table(
        &format!(
            "Sharded serving: Zipfian burst, {} writers x {} reqs x {} lines \
             (host parallelism {})",
            r.writers, r.requests, r.lines, r.parallelism
        ),
        &["Bench", "Workload", "Throughput", "p50 ack", "p99 ack", "Speedup"],
        &rows,
    )
}
