//! Procedural name generation.
//!
//! The streaming datasets of Table I contain hundreds of *unique*
//! entities each (283–906), far more than a hand-written list can
//! provide. This module composes names from syllable and word-part
//! pools, deterministically per seed, with a uniqueness guarantee inside
//! one generator instance.
//!
//! ## Lexicon universes
//!
//! The paper fine-tunes its Local NER model on WNUT17 and then streams
//! *fresh* topics whose entities the model has mostly never seen — that
//! lexical novelty is why local context alone is insufficient. To
//! reproduce it, the name-part pools are split into two disjoint
//! [`Universe`]s: the training corpus draws from one, the evaluation
//! streams from the other. Universal cues stay shared across universes
//! the way they are in reality: common first names, directional location
//! prefixes ("north", "san"), and the capitalized shape of names —
//! but last-name syllables, place cores, organization vocabularies and
//! disease/creative-work parts are disjoint, so eval entities cannot be
//! recognized by memorized subword units.

use ngl_runtime::rng::SplitMix64;
use std::collections::HashSet;

use ngl_text::EntityType;

/// Which half of the name-part lexicon a generator draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Universe {
    /// Training-corpus lexicon.
    Train,
    /// Evaluation-stream lexicon (disjoint word parts).
    Eval,
}

/// Shared across universes: globally common first names.
const FIRST_NAMES: &[&str] = &[
    "andy", "maria", "james", "lena", "omar", "priya", "carlos", "nadia", "viktor", "amara",
    "dmitri", "sofia", "kenji", "fatima", "lucas", "ingrid", "rahul", "elena", "marco", "aisha",
    "pavel", "greta", "tomas", "zara", "felix", "nora", "ivan", "leila", "bruno", "anika",
];

/// Shared: directional/urban location prefixes ("new X" exists anywhere).
const LOC_PREFIX: &[&str] =
    &["north", "south", "east", "west", "new", "port", "lake", "san", "fort", "cape"];

// ---- Split pools: first half = Train, second half = Eval. ----

const LAST_SYLLA: &[&str] = &[
    // Train half.
    "besh", "kov", "mart", "sant", "wick", "hara", "lund", "ferr", "mora", "stein",
    // Eval half.
    "vald", "okon", "berg", "ratt", "cole", "dran", "velt", "shaw", "quist", "mbe",
];
const LAST_SYLLB: &[&str] = &[
    "ear", "alov", "inez", "iago", "ham", "moto", "qvist", "ari", "les", "feld", "errez", "kwo",
    "man", "ner", "son", "ovic", "hoff", "lin", "rom", "ki",
];

const LOC_CORE: &[&str] = &[
    "avoria",
    "belmont",
    "cordova",
    "darnell",
    "elmsworth",
    "farindale",
    "grenholm",
    "harwick",
    "ivoria",
    "jutland",
    "kessler",
    "lorring",
    "maraval",
    "norwick",
    "ostrava",
    "pellmore",
    "quinton",
    "ravenna",
    "solvang",
    "tremont",
    "ulverton",
    "vandria",
    "westholm",
    "yarrow",
    "zephyria",
];

const ORG_CORE: &[&str] = &[
    "apex",
    "meridian",
    "vanguard",
    "pinnacle",
    "horizon",
    "atlas",
    "summit",
    "keystone",
    "beacon",
    "cascade",
    "northstar",
    "quantum",
    "sterling",
    "vertex",
    "zenith",
    "orion",
    "pioneer",
    "cobalt",
    "granite",
    "harbor",
];
const ORG_SUFFIX: &[&str] = &[
    "corp",
    "labs",
    "group",
    "institute",
    "foundation",
    "media",
    "systems",
    "partners",
    "authority",
    "agency",
    "council",
    "ministry",
    "department",
    "university",
    "league",
    "network",
];

const MISC_DISEASE_A: &[&str] =
    &["rota", "nephro", "cardio", "derma", "neuro", "hema", "osteo", "pulmo", "gastro", "viro"];
const MISC_DISEASE_B: &[&str] =
    &["virus", "fever", "pox", "flu", "itis", "plague", "syndrome", "mia"];
const MISC_WORK_A: &[&str] = &[
    "midnight",
    "crimson",
    "silent",
    "golden",
    "electric",
    "broken",
    "hollow",
    "neon",
    "velvet",
    "shattered",
];
const MISC_WORK_B: &[&str] = &[
    "horizon", "echoes", "reverie", "skies", "empire", "letters", "mirrors", "gardens", "voyage",
    "anthem",
];

/// Returns the universe's half of a split pool.
fn half<'a>(pool: &'a [&'a str], universe: Universe) -> &'a [&'a str] {
    let mid = pool.len() / 2;
    match universe {
        Universe::Train => &pool[..mid],
        Universe::Eval => &pool[mid..],
    }
}

/// Deterministic, collision-free name generator.
///
/// Wraps a caller-provided RNG and remembers every name it has produced,
/// so a single generator never emits the same canonical name twice.
pub struct NameGen {
    universe: Universe,
    used: HashSet<String>,
}

impl NameGen {
    /// A fresh generator over the given lexicon universe.
    pub fn new(universe: Universe) -> Self {
        Self { universe, used: HashSet::new() }
    }

    /// Marks a name as taken (used to protect hand-picked anchor
    /// entities from procedural collisions).
    pub fn reserve(&mut self, name: &str) {
        self.used.insert(name.to_string());
    }

    /// Generates a unique canonical name (lower-case tokens) for the
    /// given entity type.
    pub fn generate(&mut self, rng: &mut SplitMix64, ty: EntityType) -> Vec<String> {
        for attempt in 0..10_000 {
            let mut cand = self.candidate(rng, ty);
            if attempt >= 100 {
                // Base combination space is getting crowded — widen it
                // with a distinguishing extra syllable token.
                let sa = half(LAST_SYLLA, self.universe);
                let sb = half(LAST_SYLLB, self.universe);
                cand.push(format!(
                    "{}{}",
                    sa[rng.gen_range(0..sa.len())],
                    sb[rng.gen_range(0..sb.len())]
                ));
            }
            let key = cand.join(" ");
            if self.used.insert(key) {
                return cand;
            }
        }
        panic!("name space exhausted for {ty}");
    }

    /// A random 2–4 letter acronym ("nhs"-style). Acronym orgs are
    /// shape-ambiguous — rendered in caps they look like any shouted
    /// word — which is one reason ORG is a weak type for local NER.
    fn acronym(&self, rng: &mut SplitMix64) -> String {
        // Consonant-heavy alphabet, split by universe to stay disjoint.
        let letters: &[char] = match self.universe {
            Universe::Train => &['b', 'c', 'd', 'f', 'g', 'h', 'j', 'k', 'l', 'm'],
            Universe::Eval => &['n', 'p', 'q', 'r', 's', 't', 'v', 'w', 'x', 'z'],
        };
        let n = rng.gen_range(2..=4usize);
        (0..n).map(|_| letters[rng.gen_range(0..letters.len())]).collect()
    }

    fn candidate(&self, rng: &mut SplitMix64, ty: EntityType) -> Vec<String> {
        let u = self.universe;
        match ty {
            EntityType::Person => {
                let first = FIRST_NAMES[rng.gen_range(0..FIRST_NAMES.len())];
                let sa = half(LAST_SYLLA, u);
                let sb = half(LAST_SYLLB, u);
                let last =
                    format!("{}{}", sa[rng.gen_range(0..sa.len())], sb[rng.gen_range(0..sb.len())]);
                vec![first.to_string(), last]
            }
            EntityType::Location => {
                let core_pool = half(LOC_CORE, u);
                if rng.gen_bool(0.4) {
                    vec![
                        LOC_PREFIX[rng.gen_range(0..LOC_PREFIX.len())].to_string(),
                        core_pool[rng.gen_range(0..core_pool.len())].to_string(),
                    ]
                } else {
                    let core = core_pool[rng.gen_range(0..core_pool.len())];
                    if rng.gen_bool(0.5) {
                        vec![core.to_string()]
                    } else {
                        let sa = half(LAST_SYLLA, u);
                        let syl = sa[rng.gen_range(0..sa.len())];
                        vec![format!("{syl}{core}")]
                    }
                }
            }
            EntityType::Organization => {
                if rng.gen_bool(0.4) {
                    // Acronym org ("NHS", "DOJ" style) — hard for a
                    // local tagger because a shouted word looks identical.
                    return vec![self.acronym(rng)];
                }
                let cores = half(ORG_CORE, u);
                let suffixes = half(ORG_SUFFIX, u);
                let core = cores[rng.gen_range(0..cores.len())];
                let suffix = suffixes[rng.gen_range(0..suffixes.len())];
                if rng.gen_bool(0.25) {
                    let locs = half(LOC_CORE, u);
                    let loc = locs[rng.gen_range(0..locs.len())];
                    vec![suffix.to_string(), "of".to_string(), loc.to_string()]
                } else {
                    vec![core.to_string(), suffix.to_string()]
                }
            }
            EntityType::Miscellaneous => {
                if rng.gen_bool(0.5) {
                    // Disease-like single token ("rotavirus").
                    let a = half(MISC_DISEASE_A, u);
                    let b = half(MISC_DISEASE_B, u);
                    vec![format!(
                        "{}{}",
                        a[rng.gen_range(0..a.len())],
                        b[rng.gen_range(0..b.len())]
                    )]
                } else {
                    // Creative-work-like two tokens ("midnight echoes") —
                    // ordinary words, often lowercase, genuinely hard.
                    let a = half(MISC_WORK_A, u);
                    let b = half(MISC_WORK_B, u);
                    vec![
                        a[rng.gen_range(0..a.len())].to_string(),
                        b[rng.gen_range(0..b.len())].to_string(),
                    ]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_within_a_generator() {
        let mut rng = SplitMix64::new(1);
        let mut g = NameGen::new(Universe::Eval);
        let mut seen = HashSet::new();
        for i in 0..800 {
            let ty = EntityType::from_index(i % 4);
            let n = g.generate(&mut rng, ty).join(" ");
            assert!(seen.insert(n.clone()), "duplicate name {n}");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = |seed| {
            let mut rng = SplitMix64::new(seed);
            let mut g = NameGen::new(Universe::Train);
            (0..20)
                .map(|i| g.generate(&mut rng, EntityType::from_index(i % 4)).join(" "))
                .collect::<Vec<_>>()
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }

    #[test]
    fn reserved_names_are_not_reissued() {
        let mut rng = SplitMix64::new(2);
        let mut g = NameGen::new(Universe::Eval);
        for core in LOC_CORE {
            g.reserve(core);
        }
        for _ in 0..100 {
            let n = g.generate(&mut rng, EntityType::Location).join(" ");
            assert!(!LOC_CORE.contains(&n.as_str()), "reissued reserved {n}");
        }
    }

    #[test]
    fn names_are_lowercase_tokens() {
        let mut rng = SplitMix64::new(3);
        let mut g = NameGen::new(Universe::Train);
        for i in 0..40 {
            let toks = g.generate(&mut rng, EntityType::from_index(i % 4));
            assert!(!toks.is_empty());
            for t in toks {
                assert!(t.chars().all(|c| c.is_ascii_lowercase()), "token {t}");
            }
        }
    }

    /// The core novelty property: no eval-universe name token (other
    /// than shared first names and location prefixes) may appear in a
    /// train-universe name.
    #[test]
    fn universes_have_disjoint_distinctive_tokens() {
        let collect = |universe| {
            let mut rng = SplitMix64::new(4);
            let mut g = NameGen::new(universe);
            let mut toks = HashSet::new();
            for i in 0..400 {
                for t in g.generate(&mut rng, EntityType::from_index(i % 4)) {
                    toks.insert(t);
                }
            }
            toks
        };
        let train = collect(Universe::Train);
        let eval = collect(Universe::Eval);
        let shared: HashSet<&String> = train.intersection(&eval).collect();
        for t in &shared {
            let ok = FIRST_NAMES.contains(&t.as_str())
                || LOC_PREFIX.contains(&t.as_str())
                || t.as_str() == "of";
            assert!(ok, "distinctive token {t} leaked across universes");
        }
    }
}
