//! The entity knowledge base behind the synthetic streams.
//!
//! Each [`EntityRecord`] carries a canonical name, the set of alias
//! surface forms it appears under in tweets (shortened forms, hashtag
//! forms), its entity type and home topic. A handful of *anchor*
//! entities mirror the paper's running examples (beshear, trump, italy,
//! US, NHS, coronavirus, washington, fireflies, …), including the
//! ambiguous surface forms §V-C is built around; the rest of the pool is
//! generated procedurally.

use ngl_runtime::rng::SplitMix64;
use std::collections::HashMap;

use ngl_text::EntityType;

use crate::namegen::{NameGen, Universe};

/// Opaque, stable identifier of a knowledge-base entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub u32);

/// Conversation topics the streaming datasets cover (§VI: Politics,
/// Sports, Entertainment, Science and Health).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Topic {
    /// Elections, governments, policy.
    Politics,
    /// Teams, athletes, matches.
    Sports,
    /// Music, film, celebrities.
    Entertainment,
    /// Research, tech companies, space.
    Science,
    /// Disease outbreaks, hospitals — the Covid stream (D2) lives here.
    Health,
}

impl Topic {
    /// All topics in a stable order.
    pub const ALL: [Topic; 5] =
        [Topic::Politics, Topic::Sports, Topic::Entertainment, Topic::Science, Topic::Health];

    /// A short lowercase label ("politics").
    pub fn label(self) -> &'static str {
        match self {
            Topic::Politics => "politics",
            Topic::Sports => "sports",
            Topic::Entertainment => "entertainment",
            Topic::Science => "science",
            Topic::Health => "health",
        }
    }
}

/// One real-world entity and the surface forms it is mentioned under.
#[derive(Debug, Clone)]
pub struct EntityRecord {
    /// Stable identifier.
    pub id: EntityId,
    /// The entity's type.
    pub ty: EntityType,
    /// Canonical name as lowercase tokens, e.g. `["andy", "beshear"]`.
    pub canonical: Vec<String>,
    /// Alias surface forms (each a token sequence, lowercase). Always
    /// contains the canonical form; may add shortened and hashtag forms.
    pub aliases: Vec<Vec<String>>,
    /// Home topic.
    pub topic: Topic,
}

/// Common words the tweet grammar also uses as *non-entities* while an
/// entity shares the identical surface form — the ambiguity §V-C
/// resolves by clustering ("US" the country vs "us" the pronoun,
/// "Fireflies" the song vs fireflies the insects).
pub const AMBIGUOUS_NON_ENTITY_WORDS: &[&str] = &["us", "apple", "fireflies", "stone", "summit"];

/// The full entity inventory plus topic indexes.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    entities: Vec<EntityRecord>,
    by_topic: HashMap<Topic, Vec<EntityId>>,
}

impl KnowledgeBase {
    /// Builds a knowledge base with `per_topic` procedural entities per
    /// topic on top of the fixed anchor inventory, drawing from the
    /// evaluation lexicon universe. Deterministic per `seed`.
    pub fn build(seed: u64, per_topic: usize) -> Self {
        Self::build_in(seed, per_topic, Universe::Eval)
    }

    /// Like [`Self::build`] but with an explicit lexicon universe —
    /// training corpora use [`Universe::Train`] so their procedural
    /// entities share no distinctive word parts with the evaluation
    /// streams (the lexical novelty that makes microblog NER hard).
    pub fn build_in(seed: u64, per_topic: usize, universe: Universe) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut gen = NameGen::new(universe);
        let mut entities = Vec::new();

        // The anchor inventory mirrors the *emerging* entities of the
        // paper's streams (coronavirus, beshear, …) — entities the
        // fine-tuned model has not seen. They therefore live only in the
        // evaluation universe; the training corpus never mentions them,
        // just as WNUT17 (2017) never mentions Covid.
        if universe == Universe::Eval {
            for a in anchor_entities() {
                gen.reserve(&a.canonical.join(" "));
                entities.push(a);
            }
        }
        // Reserve ambiguous plain words so procedural names don't collide.
        for w in AMBIGUOUS_NON_ENTITY_WORDS {
            gen.reserve(w);
        }

        let mut next_id = entities.len() as u32;
        for topic in Topic::ALL {
            for i in 0..per_topic {
                // Type mix: persons dominate, ORG/MISC rarer — the same
                // skew that makes those types hard in WNUT17 (Product,
                // Creative-work and Group fold into MISC, so it is not
                // vanishingly rare either).
                let ty = match i % 20 {
                    0..=6 => EntityType::Person,
                    7..=11 => EntityType::Location,
                    12..=15 => EntityType::Organization,
                    _ => EntityType::Miscellaneous,
                };
                let canonical = gen.generate(&mut rng, ty);
                let aliases = make_aliases(&mut rng, &canonical, ty);
                entities.push(EntityRecord {
                    id: EntityId(next_id),
                    ty,
                    canonical,
                    aliases,
                    topic,
                });
                next_id += 1;
            }
        }

        let mut by_topic: HashMap<Topic, Vec<EntityId>> = HashMap::new();
        for e in &entities {
            by_topic.entry(e.topic).or_default().push(e.id);
        }
        Self { entities, by_topic }
    }

    /// All entities.
    #[cfg(test)]
    pub fn entities(&self) -> &[EntityRecord] {
        &self.entities
    }

    /// Record lookup by id.
    pub fn get(&self, id: EntityId) -> &EntityRecord {
        &self.entities[id.0 as usize]
    }

    /// Entity ids belonging to a topic.
    pub fn topic_entities(&self, topic: Topic) -> &[EntityId] {
        self.by_topic.get(&topic).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Entities whose alias set contains the given surface form
    /// (lowercase, space-joined). Ambiguous surfaces return several.
    #[cfg(test)]
    fn entities_with_surface(&self, surface: &str) -> Vec<EntityId> {
        self.entities
            .iter()
            .filter(|e| e.aliases.iter().any(|a| a.join(" ") == surface))
            .map(|e| e.id)
            .collect()
    }

    /// Total entity count.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the knowledge base is empty.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

fn make_aliases(rng: &mut SplitMix64, canonical: &[String], ty: EntityType) -> Vec<Vec<String>> {
    let mut aliases = vec![canonical.to_vec()];
    if canonical.len() > 1 {
        match ty {
            EntityType::Person => {
                // Last-name-only mention ("beshear").
                aliases.push(vec![canonical[canonical.len() - 1].clone()]);
            }
            EntityType::Organization | EntityType::Miscellaneous | EntityType::Location => {
                if rng.gen_bool(0.5) {
                    aliases.push(vec![canonical[0].clone()]);
                }
            }
        }
        // Hashtag form: "#andybeshear".
        aliases.push(vec![format!("#{}", canonical.join(""))]);
    } else if rng.gen_bool(0.6) {
        aliases.push(vec![format!("#{}", canonical[0])]);
    }
    aliases
}

/// The fixed anchor inventory mirroring the paper's examples. Includes
/// the ambiguous pairs: washington (PER & LOC), jordan (PER & LOC),
/// paris (LOC & PER), amazon (ORG & LOC), plus entities whose surface
/// collides with common words (US, apple, fireflies, summit, stone).
fn anchor_entities() -> Vec<EntityRecord> {
    let mk = |id: u32, ty, topic, canonical: &[&str], aliases: &[&[&str]]| EntityRecord {
        id: EntityId(id),
        ty,
        canonical: canonical.iter().map(|s| s.to_string()).collect(),
        aliases: aliases.iter().map(|a| a.iter().map(|s| s.to_string()).collect()).collect(),
        topic,
    };
    use EntityType::*;
    use Topic::*;
    vec![
        mk(
            0,
            Person,
            Health,
            &["andy", "beshear"],
            &[&["andy", "beshear"], &["beshear"], &["#andybeshear"]],
        ),
        mk(
            1,
            Person,
            Politics,
            &["donald", "trump"],
            &[&["donald", "trump"], &["trump"], &["#trump"]],
        ),
        mk(2, Location, Health, &["italy"], &[&["italy"], &["#italy"]]),
        mk(3, Location, Health, &["canada"], &[&["canada"], &["#canada"]]),
        mk(4, Location, Health, &["us"], &[&["us"]]),
        mk(5, Organization, Health, &["nhs"], &[&["nhs"], &["#nhs"]]),
        mk(
            6,
            Miscellaneous,
            Health,
            &["coronavirus"],
            &[&["coronavirus"], &["covid"], &["covid", "19"], &["#coronavirus"], &["#covid19"]],
        ),
        mk(
            7,
            Organization,
            Politics,
            &["justice", "department"],
            &[&["justice", "department"], &["doj"]],
        ),
        mk(8, Organization, Politics, &["russian", "government"], &[&["russian", "government"]]),
        // Ambiguous pair: the president vs the state.
        mk(
            9,
            Person,
            Politics,
            &["george", "washington"],
            &[&["george", "washington"], &["washington"]],
        ),
        mk(10, Location, Politics, &["washington"], &[&["washington"], &["#washington"]]),
        // Ambiguous pair: the athlete vs the country.
        mk(11, Person, Sports, &["michael", "jordan"], &[&["michael", "jordan"], &["jordan"]]),
        mk(12, Location, Sports, &["jordan"], &[&["jordan"]]),
        // Ambiguous pair: the city vs the celebrity.
        mk(13, Location, Entertainment, &["paris"], &[&["paris"], &["#paris"]]),
        mk(14, Person, Entertainment, &["paris", "hilton"], &[&["paris", "hilton"], &["paris"]]),
        // Surface collides with the river / the fruit / the insects.
        mk(15, Organization, Science, &["amazon"], &[&["amazon"], &["#amazon"]]),
        mk(16, Location, Science, &["amazon", "river"], &[&["amazon", "river"], &["amazon"]]),
        mk(17, Organization, Science, &["apple"], &[&["apple"], &["#apple"]]),
        mk(18, Miscellaneous, Entertainment, &["fireflies"], &[&["fireflies"], &["#fireflies"]]),
        mk(19, Person, Entertainment, &["emma", "stone"], &[&["emma", "stone"], &["stone"]]),
        mk(
            20,
            Organization,
            Politics,
            &["summit", "council"],
            &[&["summit", "council"], &["summit"]],
        ),
        mk(21, Miscellaneous, Health, &["rotavirus"], &[&["rotavirus"]]),
        mk(
            22,
            Person,
            Health,
            &["anthony", "fauci"],
            &[&["anthony", "fauci"], &["fauci"], &["#fauci"]],
        ),
        mk(23, Location, Health, &["wuhan"], &[&["wuhan"], &["#wuhan"]]),
        mk(24, Organization, Health, &["who"], &[&["who"]]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_have_sequential_ids() {
        let anchors = anchor_entities();
        for (i, a) in anchors.iter().enumerate() {
            assert_eq!(a.id.0 as usize, i);
            assert!(!a.aliases.is_empty());
            assert!(a.aliases.contains(&a.canonical), "canonical missing for {:?}", a.canonical);
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = KnowledgeBase::build(5, 30);
        let b = KnowledgeBase::build(5, 30);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entities().iter().zip(b.entities()) {
            assert_eq!(x.canonical, y.canonical);
        }
    }

    #[test]
    fn every_topic_gets_entities() {
        let kb = KnowledgeBase::build(1, 40);
        for t in Topic::ALL {
            assert!(kb.topic_entities(t).len() >= 40, "topic {t:?}");
        }
    }

    #[test]
    fn ambiguous_surfaces_map_to_multiple_entities() {
        let kb = KnowledgeBase::build(1, 10);
        let w = kb.entities_with_surface("washington");
        assert!(w.len() >= 2, "washington should be ambiguous, got {w:?}");
        let types: Vec<_> = w.iter().map(|&id| kb.get(id).ty).collect();
        assert!(types.contains(&EntityType::Person));
        assert!(types.contains(&EntityType::Location));
        assert!(kb.entities_with_surface("jordan").len() >= 2);
        assert!(kb.entities_with_surface("amazon").len() >= 2);
    }

    #[test]
    fn covid_anchor_has_variant_aliases() {
        let kb = KnowledgeBase::build(1, 10);
        let cov = kb.entities_with_surface("coronavirus");
        assert_eq!(cov.len(), 1);
        let rec = kb.get(cov[0]);
        assert!(rec.aliases.iter().any(|a| a.join(" ") == "covid 19"));
    }

    #[test]
    fn get_round_trips_ids() {
        let kb = KnowledgeBase::build(2, 15);
        for e in kb.entities() {
            assert_eq!(kb.get(e.id).id, e.id);
        }
    }
}
