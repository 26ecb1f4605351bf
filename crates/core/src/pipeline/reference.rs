//! The full candidate-store rebuild that [`NerGlobalizer::admit`]
//! replaced, kept as its differential reference, and the tests that
//! pin the in-place admit to it bit for bit.

use std::sync::Arc;

use ngl_ctrie::MentionOccurrence;
use ngl_encoder::ContextualTagger;
use ngl_text::{EntityType, Span};

use super::{tweet_task_error, NerGlobalizer, Scan};
use crate::bases::{CandidateBase, MentionRecord};

impl<T: ContextualTagger> NerGlobalizer<T> {
    /// Finalizes through [`Self::admit_reference`], the full rebuild
    /// the in-place [`Self::admit`] must reproduce bit for bit. Chains
    /// like [`Self::with_executor`], and clones carry it, so a sharded
    /// store of such pipelines runs the reference on every shard.
    pub(crate) fn with_reference_rebuild(mut self) -> Self {
        self.reference_rebuild = true;
        self
    }

    /// The candidate-store rebuild [`Self::admit`] replaced, kept as its
    /// differential reference: a version bump rebuilds the store from
    /// the scan start, carrying the clusters and labels of every
    /// surface whose rebuilt mention list equals the one they were
    /// computed over, and every owned occurrence is added in tweet
    /// order. It holds no scan memo, so every scan it sees covers every
    /// stored tweet.
    pub(super) fn admit_reference(&mut self, scan: &Scan) {
        assert!(scan.full, "the reference rebuild needs a full scan");
        self.scan_memo = None;
        let start = scan.start;
        let mut carried = None;
        if scan.rebuild {
            // A version bump rescans from the first tweet.
            carried = Some(self.candidates.take_clean_clusters());
            self.candidates = CandidateBase::new();
        }
        let owner = self.shard_filter.map(|(index, _)| index);
        let owns = |shard: u32| match owner {
            Some(index) => index == shard,
            None => true,
        };
        let work: Vec<usize> = (0..scan.tweets.len())
            .filter(|&k| scan.tweets[k].occurrences.iter().any(|&(shard, _)| owns(shard)))
            .collect();
        let cache = &self.mention_cache;
        let phrase = &*self.phrase;
        let tweets = &self.tweets;
        let built = self.exec.try_par_map(work.clone(), |_, k| {
            let ti = start + k;
            let record = tweets.get(ti);
            let owned: Vec<&MentionOccurrence> = scan.tweets[k]
                .occurrences
                .iter()
                .filter(|&&(shard, _)| owns(shard))
                .map(|(_, occ)| occ)
                .collect();
            let misses: Vec<Span> = owned
                .iter()
                .filter(|occ| !cache.contains(&(ti, occ.start, occ.end)))
                .map(|occ| Span::new(occ.start, occ.end, EntityType::Person))
                .collect();
            let mut fresh = phrase.embed_spans(&record.embeddings, &misses).into_iter();
            owned
                .into_iter()
                .map(|occ| {
                    let local_emb = match cache.get(&(ti, occ.start, occ.end)) {
                        Some(emb) => Arc::clone(emb),
                        None => {
                            let mut emb = fresh.next().expect("one embedding per cache miss");
                            ngl_nn::kernels::canonicalize(&mut emb);
                            emb.into()
                        }
                    };
                    let local_type = record
                        .local_spans
                        .iter()
                        .find(|s| s.start == occ.start && s.end == occ.end)
                        .map(|s| s.ty);
                    MentionRecord {
                        tweet: ti,
                        start: occ.start,
                        end: occ.end,
                        local_emb,
                        local_type,
                        trie_version: scan.version,
                    }
                })
                .collect::<Vec<MentionRecord>>()
        });
        let mut admitted: Vec<Option<Vec<MentionRecord>>> =
            vec![Some(Vec::new()); scan.tweets.len()];
        for (k, result) in work.into_iter().zip(built) {
            admitted[k] = match result {
                Ok(records) => Some(records),
                Err(e) => {
                    self.finalize_errors.push(tweet_task_error(start + k, e));
                    None
                }
            };
        }
        for (k, t) in scan.tweets.iter().enumerate() {
            let Some(records) = admitted[k].take() else { continue };
            let mut records = records.into_iter();
            for (shard, occ) in &t.occurrences {
                if !owns(*shard) {
                    self.candidates.touch_skip();
                    continue;
                }
                let record = records.next().expect("one record per owned occurrence");
                self.mention_cache
                    .admit((record.tweet, record.start, record.end), &record.local_emb);
                self.candidates.add_mention(&occ.surface, record);
            }
        }
        if let Some(carried) = carried {
            self.candidates.restore_clusters(carried);
        }
        self.scanned_tweets = scan.end;
        self.scanned_version = scan.version;
    }
}

mod tests {
    use std::path::PathBuf;

    use ngl_encoder::{SentenceEncoding, SequenceTagger};
    use ngl_nn::Matrix;
    use ngl_runtime::rng::{for_each_case, SplitMix64};
    use ngl_runtime::Executor;
    use ngl_text::BioTag;

    use super::*;
    use crate::classifier::{ClassifierConfig, EntityClassifier};
    use crate::phrase::{PhraseEmbedder, PhraseEmbedderConfig};
    use crate::pipeline::tests::toks;
    use crate::pipeline::{AblationMode, GlobalizerConfig};
    use crate::shard::ShardedGlobalizer;

    const DIM: usize = 8;

    /// A tagger that seeds multi-token surfaces: a capitalized token
    /// (`#` markers ignored) begins a span, an all-caps one continues
    /// it, so `Andy BESHEAR` seeds "andy beshear". A token embeds as a
    /// folded-token hash one-hot plus half of its left neighbour's, so
    /// mentions of one surface differ by context.
    struct SpanTagger;

    impl SequenceTagger for SpanTagger {
        fn tag(&self, tokens: &[String]) -> Vec<BioTag> {
            tokens
                .iter()
                .map(|t| {
                    let t = t.trim_start_matches('#');
                    let upper = t.chars().filter(|c| c.is_alphabetic()).all(char::is_uppercase);
                    match t.chars().next() {
                        Some(c) if c.is_uppercase() && upper && t.len() > 1 => {
                            BioTag::I(EntityType::Person)
                        }
                        Some(c) if c.is_uppercase() => BioTag::B(EntityType::Person),
                        _ => BioTag::O,
                    }
                })
                .collect()
        }
    }

    impl ContextualTagger for SpanTagger {
        fn dim(&self) -> usize {
            DIM
        }

        fn encode(&self, tokens: &[String]) -> SentenceEncoding {
            let hash =
                |t: &String| ngl_ctrie::fold_token(t).bytes().map(usize::from).sum::<usize>();
            let mut emb = Matrix::zeros(tokens.len(), DIM);
            for (i, t) in tokens.iter().enumerate() {
                emb.row_mut(i)[hash(t) % DIM] += 1.0;
                if let Some(left) = i.checked_sub(1).map(|j| &tokens[j]) {
                    emb.row_mut(i)[hash(left) % DIM] += 0.5;
                }
            }
            SentenceEncoding {
                embeddings: emb,
                tags: self.tag(tokens),
                probs: Matrix::zeros(tokens.len(), BioTag::COUNT),
            }
        }
    }

    fn pipeline(threads: usize) -> NerGlobalizer<SpanTagger> {
        NerGlobalizer::new(
            SpanTagger,
            PhraseEmbedder::new(PhraseEmbedderConfig { dim: DIM, ..Default::default() }),
            EntityClassifier::new(ClassifierConfig { dim: DIM, ..Default::default() }),
            GlobalizerConfig { ablation: AblationMode::FullGlobal, ..Default::default() },
        )
        .with_executor(Executor::new(threads))
    }

    /// Streams whose later surfaces extend, prefix and overlap earlier
    /// ones: greedy boundaries shift inside old tweets, older
    /// occurrences disappear into longer matches, `#` markers and lone
    /// `#`s appear, some capitalized runs are longer than the scan
    /// window, and a surface seeded by one tweet may match only in
    /// others (a longer match covers it where it was seeded).
    fn seeded_stream(rng: &mut SplitMix64) -> Vec<Vec<Vec<String>>> {
        const WORDS: [&str; 16] = [
            "andy",
            "beshear",
            "new",
            "york",
            "city",
            "covid",
            "italy",
            "us",
            "open",
            "tennis",
            "gov",
            "masks",
            "kentucky",
            "state",
            "fair",
            "louisville",
        ];
        const FILLER: [&str; 4] = ["the", "and", "rt", "today"];
        fn capitalized(w: &str) -> String {
            w[..1].to_uppercase() + &w[1..]
        }
        let word = |rng: &mut SplitMix64| -> String {
            let w = WORDS[rng.gen_range(0..WORDS.len())];
            match rng.gen_range(0..100u32) {
                0..=54 => w.to_string(),
                55..=74 => capitalized(w),
                75..=89 => w.to_uppercase(),
                90..=96 => format!("#{w}"),
                _ => "#".to_string(),
            }
        };
        (0..rng.gen_range(10..18usize))
            .map(|_| {
                (0..rng.gen_range(1..5usize))
                    .map(|_| {
                        if rng.gen_range(0..20u32) == 0 {
                            // A capitalized run longer than the window.
                            let mut run = vec![capitalized(WORDS[rng.gen_range(0..WORDS.len())])];
                            for _ in 0..rng.gen_range(4..7usize) {
                                run.push(WORDS[rng.gen_range(0..WORDS.len())].to_uppercase());
                            }
                            return run;
                        }
                        (0..rng.gen_range(0..10usize))
                            .map(|_| {
                                if rng.gen_range(0..7u32) == 0 {
                                    FILLER[rng.gen_range(0..FILLER.len())].to_string()
                                } else {
                                    word(rng)
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// One stream written to hit each boundary case on purpose.
    fn crafted_stream() -> Vec<Vec<Vec<String>>> {
        [
            vec![
                "saw new york city today",
                "the new york state fair",
                "kentucky state news and gov kentucky",
                "#covid masks in new york",
                "gov andy beshear said andy beshear",
                "us open tennis",
            ],
            // "new york" prefixes the old tweets' "new york city".
            vec!["New YORK rocks"],
            // "new york city" extends it: "new york" disappears into
            // the longer match in tweet 0 while the new tweet adds one,
            // so the entry keeps its mention count.
            vec!["New YORK CITY again", "rt new york"],
            // "gov kentucky" first, then "kentucky state" seeded by a
            // tweet whose own scan takes "gov kentucky" instead.
            vec!["Gov KENTUCKY"],
            vec!["Gov Kentucky STATE"],
            // Overlaps "andy beshear"; the greedy scan keeps the
            // leftmost match.
            vec!["Gov ANDY", "#Covid and #Masks"],
            // Longer than the scan window: registered, never matched.
            vec!["Andy BESHEAR NEW YORK CITY", "us open tennis"],
            vec!["Us OPEN", "open Tennis"],
            vec!["nothing new here"],
        ]
        .into_iter()
        .map(|batch| batch.into_iter().map(toks).collect())
        .collect()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ngl-reference-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Runs `batches` through the in-place admit and through the
    /// reference rebuild, finalizing after each batch, and asserts equal
    /// output, checkpoint bytes and state digests after every finalize.
    /// With `shards`, the in-place side is a sharded store, compared on
    /// its merged view. Every fourth finalize the in-place side first
    /// round-trips through a checkpoint, which drops its scan memo.
    fn assert_matches_reference(
        batches: &[Vec<Vec<String>>],
        threads: usize,
        shards: u32,
        tag: &str,
    ) {
        let mut reference = pipeline(threads).with_reference_rebuild();
        let dir = scratch(tag);
        let mut sharded = (shards > 1)
            .then(|| ShardedGlobalizer::open(pipeline(threads), &dir, 3, shards).expect("open").0);
        let mut single = pipeline(threads);
        for (i, batch) in batches.iter().enumerate() {
            reference.ingest(batch.clone(), None);
            let want = reference.finalize();
            let (got, bytes, digest) = match &mut sharded {
                Some(store) => {
                    store.ingest(batch.clone(), None).expect("ingest");
                    let got = store.finalize().expect("finalize");
                    (got, store.merged().export_state_bytes(), store.combined_digest())
                }
                None => {
                    if i % 4 == 3 {
                        let mut fresh = pipeline(threads);
                        fresh.import_state_bytes(&single.export_state_bytes()).expect("import");
                        single = fresh;
                    }
                    single.ingest(batch.clone(), None);
                    let got = single.finalize();
                    (got, single.export_state_bytes(), single.state_digest())
                }
            };
            let case = format!("{tag}, finalize {i}");
            assert_eq!(got, want, "spans differ: {case}");
            assert_eq!(digest, reference.state_digest(), "digest differs: {case}");
            assert!(bytes == reference.export_state_bytes(), "checkpoint bytes differ: {case}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crafted_boundary_shifts_match_the_reference_rebuild() {
        let batches = crafted_stream();
        for threads in [1, 4] {
            for shards in [1, 4] {
                let tag = format!("crafted-{threads}t-{shards}s");
                assert_matches_reference(&batches, threads, shards, &tag);
            }
        }
    }

    #[test]
    fn seeded_streams_match_the_reference_rebuild() {
        let mut case = 0;
        for_each_case(0xAD_0001, 12, |rng| {
            let batches = seeded_stream(rng);
            let threads = [1, 4][case % 2];
            let shards = [1, 4][(case / 2) % 2];
            let tag = format!("seeded{case}-{threads}t-{shards}s");
            assert_matches_reference(&batches, threads, shards, &tag);
            case += 1;
        });
    }

    /// A version bump whose new surfaces occur in no old tweet rescans
    /// no old tweet, and one whose surface an old tweet holds rescans
    /// just that tweet.
    #[test]
    fn a_bump_rescans_only_tweets_holding_a_new_first_token() {
        let mut p = pipeline(1);
        p.ingest(
            vec![toks("Andy BESHEAR spoke"), toks("saw italy today"), toks("us open tennis")],
            None,
        );
        p.finalize();
        let rescanned = p.timings().tweets_rescanned;
        let version = p.trie_version();
        p.ingest(vec![toks("Louisville wins")], None);
        p.finalize();
        assert!(p.trie_version() > version);
        assert_eq!(p.timings().tweets_rescanned, rescanned, "no old tweet holds louisville");
        p.ingest(vec![toks("Italy again")], None);
        p.finalize();
        assert_eq!(p.timings().tweets_rescanned, rescanned + 1, "only tweet 1 holds italy");
        assert_eq!(p.candidate_base().get("italy").expect("entry").mentions.len(), 2);
    }
}
