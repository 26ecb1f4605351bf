//! The tweet grammar: topic-conditioned templates with typed slots.
//!
//! Templates are written in a tiny DSL — literal lowercase words plus
//! slot markers:
//!
//! * `{P}` `{L}` `{O}` `{M}` — a mention of an entity of that type,
//!   surrounded by a *type-indicative* context (this is what the Local
//!   NER encoder learns to exploit);
//! * `{E}` — a mention of an entity of *any* type in a weak, generic
//!   context (these drive the local misses and mistypes the paper
//!   observes: "so worried about X" says nothing about X's type);
//! * `{A}` — a non-entity usage of an ambiguous common word
//!   ("they told **us** to stay home");
//! * `{H}` topic hashtag, `{U}` @user, `{W}` URL, `{N}` number,
//!   `{F}` a short run of topic filler words.

use crate::kb::Topic;
use ngl_text::EntityType;

/// One element of a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Part {
    /// Literal word.
    Word(String),
    /// Typed entity slot with an informative context.
    Entity(EntityType),
    /// Entity slot of any type in a weak context.
    AnyEntity,
    /// Non-entity use of an ambiguous word.
    Ambiguous,
    /// The stream hashtag.
    Hashtag,
    /// An @user mention.
    User,
    /// A URL.
    Url,
    /// A number.
    Number,
    /// 2–4 topic filler words.
    Filler,
}

/// A parsed template.
#[derive(Debug, Clone)]
pub struct Template {
    /// The slot sequence.
    pub parts: Vec<Part>,
}

impl Template {
    /// Parses the DSL described in the module docs.
    ///
    /// # Panics
    /// Panics on an unknown slot marker — templates are compiled-in data,
    /// so this is a programmer error.
    pub fn parse(spec: &str) -> Self {
        let parts = spec
            .split_whitespace()
            .map(|w| match w {
                "{P}" => Part::Entity(EntityType::Person),
                "{L}" => Part::Entity(EntityType::Location),
                "{O}" => Part::Entity(EntityType::Organization),
                "{M}" => Part::Entity(EntityType::Miscellaneous),
                "{E}" => Part::AnyEntity,
                "{A}" => Part::Ambiguous,
                "{H}" => Part::Hashtag,
                "{U}" => Part::User,
                "{W}" => Part::Url,
                "{N}" => Part::Number,
                "{F}" => Part::Filler,
                w if w.starts_with('{') => panic!("unknown slot marker {w}"),
                w => Part::Word(w.to_string()),
            })
            .collect();
        Self { parts }
    }

    /// Number of typed-entity slots (`{P}/{L}/{O}/{M}/{E}`).
    #[cfg(test)]
    pub(crate) fn entity_slots(&self) -> usize {
        self.parts.iter().filter(|p| matches!(p, Part::Entity(_) | Part::AnyEntity)).count()
    }
}

/// Templates whose contexts carry *strong* type cues, per topic.
pub fn strong_templates(topic: Topic) -> Vec<Template> {
    let specs: &[&str] = match topic {
        Topic::Health => &[
            "gov {P} said residents of {L} must stay home {H}",
            "breaking : {M} cases rising fast in {L}",
            "the {O} confirmed {N} new {M} cases today",
            "{P} tested positive for {M}",
            "praying for everyone in {L} {H}",
            "cases of {M} reported across {L} and {L}",
            "thanks {U} and {P} for the {M} update",
            "lockdown in {L} extended says gov {P}",
            "officials at {O} issued new guidance on {M}",
            "hospitals in {L} are overwhelmed {H}",
            "doctors at {O} warn about the spread of {M}",
            "travel from {L} to {L} banned over {M}",
        ],
        Topic::Politics => &[
            "president {P} signed the bill today",
            "{P} said the {O} will investigate the leak",
            "the {O} released a statement on the election",
            "voters in {L} head to the polls tomorrow",
            "{P} slammed {P} over the new policy",
            "protests erupt in {L} tonight {H}",
            "senator {P} met officials from {L}",
            "the {O} and the {O} clash over the budget",
            "{P} will visit {L} next week says the {O}",
            "new sanctions on {L} announced by the {O}",
            "the {M} scandal dominates the hearings",
            "{P} quoted the {M} report during the debate",
        ],
        Topic::Sports => &[
            "{P} scored twice as {L} won the cup",
            "{P} signs with {O} for a record fee",
            "the {O} beat the {O} last night {H}",
            "fans in {L} are celebrating the win",
            "what a match from {P} tonight !!!",
            "injury update on {P} {W}",
            "coach {P} praised the squad after the game in {L}",
            "the {O} announced the transfer of {P}",
            "{P} breaks the record at the games in {L}",
            "the {M} documentary about the club is out",
            "fans are streaming {M} before the final",
        ],
        Topic::Entertainment => &[
            "{P} just dropped a new album {H}",
            "listening to {M} on repeat all day",
            "{M} tops the charts this week",
            "{P} to star in the new movie",
            "the premiere in {L} was packed",
            "{O} announced a sequel already",
            "cant stop playing {M} honestly",
            "{P} performed live in {L} last night",
            "the song {M} by {P} is everywhere",
            "{O} signed {P} for three more seasons",
        ],
        Topic::Science => &[
            "{O} unveiled a new device today {H}",
            "researchers at {O} found signs of water",
            "{P} presented the findings in {L}",
            "the {O} launched a rocket from {L}",
            "{M} vaccine trial shows promise says {O}",
            "breakthrough on {M} announced by {O}",
            "professor {P} from {O} wins the prize",
            "the lab in {L} published the {M} study",
            "{O} engineers tested the device in {L}",
        ],
    };
    specs.iter().map(|s| Template::parse(s)).collect()
}

/// Weak-context templates shared by every topic. `{E}` slots give the
/// tagger almost nothing to work with — these are the tweets Local NER
/// misses and Global NER later recovers via the CTrie scan (§V-A).
pub fn weak_templates() -> Vec<Template> {
    [
        "{E} is trending again",
        "so worried about {E} right now",
        "cant believe {E} honestly",
        "{E} update {W}",
        "thoughts on {E} ?",
        "everyone is talking about {E} {H}",
        "{E} !!! {H}",
        "still thinking about {E}",
        "{E} tho ...",
        "not {E} again smh",
        "{E} and {E} in the news once more",
        "ok but {E} {F}",
        "so {E} happened today",
        "tell me why {E} {F}",
        "{E} has been on my mind all week",
        "nobody is ready for {E}",
        "woke up to {E} news",
        "yall seen {E} ?",
        "{E} really said that huh",
        "this {E} situation {F}",
    ]
    .iter()
    .map(|s| Template::parse(s))
    .collect()
}

/// Entity-free templates (pure chatter); keeps entity density realistic.
pub fn filler_templates() -> Vec<Template> {
    [
        "good morning everyone {F}",
        "{F} {F} {H}",
        "rt {U} : {F}",
        "what a day {F}",
        "{F} lol",
        "cannot even {F} today",
    ]
    .iter()
    .map(|s| Template::parse(s))
    .collect()
}

/// Non-entity usages of the ambiguous words, one inventory per word.
/// The word itself is baked into the literal text (slotting any random
/// ambiguous word into one template would produce nonsense like
/// "an us a day").
pub fn ambiguous_usage_templates() -> Vec<(&'static str, Template)> {
    [
        ("us", "they told us to stay home again"),
        ("us", "this affects all of us directly"),
        ("us", "give us a break already"),
        ("us", "most of us are staying in"),
        ("apple", "an apple a day keeps the doctor away"),
        ("apple", "had an apple with lunch today"),
        ("fireflies", "watching fireflies in the garden tonight"),
        ("fireflies", "the fireflies are out again this summer"),
        ("stone", "found a stone in my shoe ugh"),
        ("stone", "the old path was paved with stone"),
        ("summit", "we reached the summit at dawn"),
        ("summit", "hiked to the summit and back today"),
    ]
    .iter()
    .map(|(w, s)| (*w, Template::parse(s)))
    .collect()
}

/// Topic filler vocabulary for `{F}` slots.
pub fn filler_vocab(topic: Topic) -> &'static [&'static str] {
    match topic {
        Topic::Health => &[
            "masks",
            "testing",
            "quarantine",
            "symptoms",
            "vaccine",
            "wash",
            "hands",
            "stay",
            "home",
            "safe",
            "numbers",
            "curve",
            "ventilators",
            "distancing",
        ],
        Topic::Politics => &[
            "votes",
            "debate",
            "campaign",
            "policy",
            "senate",
            "ballots",
            "hearing",
            "press",
            "statement",
            "reform",
            "caucus",
            "poll",
        ],
        Topic::Sports => &[
            "goal", "season", "transfer", "league", "finals", "training", "derby", "squad",
            "keeper", "stadium", "fixture", "halftime",
        ],
        Topic::Entertainment => &[
            "album",
            "tour",
            "single",
            "premiere",
            "trailer",
            "charts",
            "vinyl",
            "setlist",
            "encore",
            "soundtrack",
            "fandom",
            "remix",
        ],
        Topic::Science => &[
            "data",
            "study",
            "rocket",
            "orbit",
            "sample",
            "sensor",
            "paper",
            "lab",
            "trial",
            "prototype",
            "telescope",
            "dataset",
        ],
    }
}

/// User handles for `{U}` slots.
pub const USER_HANDLES: &[&str] = &[
    "@newswire",
    "@dailyupdate",
    "@streamwatch",
    "@localreporter",
    "@factsfirst",
    "@briefingroom",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_maps_markers() {
        let t = Template::parse("gov {P} said {F} {H}");
        assert_eq!(t.parts.len(), 5);
        assert_eq!(t.parts[0], Part::Word("gov".into()));
        assert_eq!(t.parts[1], Part::Entity(EntityType::Person));
        assert_eq!(t.parts[3], Part::Filler);
        assert_eq!(t.parts[4], Part::Hashtag);
    }

    #[test]
    #[should_panic(expected = "unknown slot marker")]
    fn unknown_marker_panics() {
        Template::parse("hello {Z}");
    }

    #[test]
    fn entity_slots_counts_typed_and_any() {
        let t = Template::parse("{P} met {E} in {L}");
        assert_eq!(t.entity_slots(), 3);
    }

    #[test]
    fn every_topic_has_strong_templates() {
        for topic in Topic::ALL {
            let ts = strong_templates(topic);
            assert!(ts.len() >= 8, "{topic:?} too few templates");
            assert!(ts.iter().all(|t| t.entity_slots() >= 1));
        }
    }

    #[test]
    fn weak_templates_use_untyped_slots() {
        for t in weak_templates() {
            assert!(t.parts.iter().all(|p| !matches!(p, Part::Entity(_))));
            assert!(t.entity_slots() >= 1);
        }
    }

    #[test]
    fn ambiguous_usages_embed_their_word() {
        for (w, t) in ambiguous_usage_templates() {
            assert!(
                t.parts.iter().any(|p| matches!(p, Part::Word(x) if x == w)),
                "{w} missing from its template"
            );
        }
    }

    #[test]
    fn filler_templates_have_no_entities() {
        for t in filler_templates() {
            assert_eq!(t.entity_slots(), 0);
        }
    }
}
