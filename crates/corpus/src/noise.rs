//! Surface noise operators.
//!
//! Microblog mentions of an entity rarely match its canonical form: the
//! paper's Figure 1 alone shows "beshear", "Beshear", "#Beshear",
//! "Coronavirus"/"coronavirus", "US". These operators turn a lowercase
//! alias into a realistic noisy surface while keeping token boundaries —
//! the gold annotation stays exact.

/// How aggressively the generator degrades surfaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseProfile {
    /// Probability a mention token keeps no capitalization (stays
    /// lowercase). Lowercased entity mentions are the main driver of
    /// Local NER misses.
    pub p_lowercase: f64,
    /// Probability a mention is rendered in ALL CAPS.
    pub p_allcaps: f64,
    /// Probability of a character-level typo in a token (len ≥ 4).
    pub p_typo: f64,
    /// Probability of elongating the final letter ("sooo").
    pub p_elongate: f64,
    /// Probability a *context* word is SHOUTED in all caps ("SO DONE").
    /// Shouting makes capitalization an unreliable entity cue, exactly
    /// as in real tweets.
    pub p_shout: f64,
}

use ngl_runtime::rng::SplitMix64;

impl Default for NoiseProfile {
    fn default() -> Self {
        Self { p_lowercase: 0.30, p_allcaps: 0.08, p_typo: 0.04, p_elongate: 0.02, p_shout: 0.05 }
    }
}

impl NoiseProfile {
    /// A cleaner profile for well-edited text (the generic-domain corpus
    /// used to train the BERT-NER baseline).
    pub fn clean() -> Self {
        Self { p_lowercase: 0.02, p_allcaps: 0.02, p_typo: 0.0, p_elongate: 0.0, p_shout: 0.0 }
    }
}

/// Renders an entity-mention alias (lowercase tokens) into surface
/// tokens under the noise profile. Hashtag aliases (leading `#`) keep
/// their marker and never receive typos (they must stay CTrie-matchable
/// in their canonical folded form).
pub fn render_mention(
    rng: &mut SplitMix64,
    profile: &NoiseProfile,
    alias: &[String],
) -> Vec<String> {
    let roll: f64 = rng.gen_f64();
    let casing = if roll < profile.p_lowercase {
        Casing::Lower
    } else if roll < profile.p_lowercase + profile.p_allcaps {
        Casing::Upper
    } else {
        Casing::Title
    };
    alias
        .iter()
        .map(|tok| {
            if let Some(rest) = tok.strip_prefix('#') {
                // Hashtags: casing applies to the body, no typos.
                return format!("#{}", apply_casing(rest, casing));
            }
            // Short single-token aliases ("us", "nhs", "doj") behave as
            // acronyms: conventional rendering is ALL CAPS, so Title
            // casing upgrades to caps for them.
            let is_acronym = alias.len() == 1
                && tok.chars().count() <= 4
                && tok.chars().all(|c| c.is_alphabetic());
            let cased = if is_acronym && casing != Casing::Lower {
                tok.to_uppercase()
            } else {
                apply_casing(tok, casing)
            };
            let mut out = cased;
            if tok.chars().count() >= 4 && rng.gen_bool(profile.p_typo) {
                out = apply_typo(rng, &out);
            }
            if rng.gen_bool(profile.p_elongate) {
                if let Some(last) = out.chars().last() {
                    if last.is_alphabetic() {
                        out.push(last);
                        out.push(last);
                    }
                }
            }
            out
        })
        .collect()
}

/// Renders a context (non-mention) word: mostly verbatim, occasional
/// elongation for realism.
pub fn render_word(rng: &mut SplitMix64, profile: &NoiseProfile, word: &str) -> String {
    let mut out = word.to_string();
    if word.chars().all(|c| c.is_alphabetic()) && rng.gen_bool(profile.p_shout) {
        out = out.to_uppercase();
    }
    if word.chars().count() >= 3 && rng.gen_bool(profile.p_elongate) {
        if let Some(last) = out.chars().last() {
            if last.is_alphabetic() {
                out.push(last);
                out.push(last);
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Casing {
    Lower,
    Upper,
    Title,
}

fn apply_casing(tok: &str, casing: Casing) -> String {
    match casing {
        Casing::Lower => tok.to_lowercase(),
        Casing::Upper => tok.to_uppercase(),
        Casing::Title => {
            let mut c = tok.chars();
            match c.next() {
                Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
                None => String::new(),
            }
        }
    }
}

fn apply_typo(rng: &mut SplitMix64, tok: &str) -> String {
    let chars: Vec<char> = tok.chars().collect();
    let n = chars.len();
    debug_assert!(n >= 4);
    // Never touch the first character — keeps the casing cue intact and
    // the token recognizable.
    match rng.gen_range(0..3u8) {
        0 => {
            // Drop a character.
            let i = rng.gen_range(1..n);
            let mut out: Vec<char> = chars.clone();
            out.remove(i);
            out.into_iter().collect()
        }
        1 => {
            // Double a character.
            let i = rng.gen_range(1..n);
            let mut out: Vec<char> = chars.clone();
            out.insert(i, chars[i]);
            out.into_iter().collect()
        }
        _ => {
            // Swap with the previous character, away from position 0.
            let i = rng.gen_range(2..n);
            let mut out = chars.clone();
            out.swap(i - 1, i);
            out.into_iter().collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(99)
    }

    #[test]
    fn title_case_is_default_behaviour() {
        let profile = NoiseProfile {
            p_lowercase: 0.0,
            p_allcaps: 0.0,
            p_typo: 0.0,
            p_elongate: 0.0,
            p_shout: 0.0,
        };
        let out = render_mention(&mut rng(), &profile, &["andy".into(), "beshear".into()]);
        assert_eq!(out, vec!["Andy", "Beshear"]);
    }

    #[test]
    fn lowercase_profile_keeps_lowercase() {
        let profile = NoiseProfile {
            p_lowercase: 1.0,
            p_allcaps: 0.0,
            p_typo: 0.0,
            p_elongate: 0.0,
            p_shout: 0.0,
        };
        let out = render_mention(&mut rng(), &profile, &["italy".into()]);
        assert_eq!(out, vec!["italy"]);
    }

    #[test]
    fn allcaps_profile_upcases() {
        let profile = NoiseProfile {
            p_lowercase: 0.0,
            p_allcaps: 1.0,
            p_typo: 0.0,
            p_elongate: 0.0,
            p_shout: 0.0,
        };
        let out = render_mention(&mut rng(), &profile, &["us".into()]);
        assert_eq!(out, vec!["US"]);
    }

    #[test]
    fn hashtags_keep_marker_and_get_no_typos() {
        let profile = NoiseProfile {
            p_lowercase: 0.0,
            p_allcaps: 0.0,
            p_typo: 1.0,
            p_elongate: 0.0,
            p_shout: 0.0,
        };
        let out = render_mention(&mut rng(), &profile, &["#coronavirus".into()]);
        assert_eq!(out, vec!["#Coronavirus"]);
    }

    #[test]
    fn typos_preserve_first_char_and_length_stays_close() {
        let profile = NoiseProfile {
            p_lowercase: 1.0,
            p_allcaps: 0.0,
            p_typo: 1.0,
            p_elongate: 0.0,
            p_shout: 0.0,
        };
        let mut r = rng();
        for _ in 0..50 {
            let out = render_mention(&mut r, &profile, &["coronavirus".into()]);
            let w = &out[0];
            assert!(w.starts_with('c'), "first char changed: {w}");
            let d = w.chars().count() as i64 - 11;
            assert!(d.abs() <= 1, "length moved too far: {w}");
        }
    }

    #[test]
    fn short_tokens_never_get_typos() {
        let profile = NoiseProfile {
            p_lowercase: 1.0,
            p_allcaps: 0.0,
            p_typo: 1.0,
            p_elongate: 0.0,
            p_shout: 0.0,
        };
        let out = render_mention(&mut rng(), &profile, &["nhs".into()]);
        assert_eq!(out, vec!["nhs"]);
    }

    #[test]
    fn render_is_deterministic_per_seed() {
        let profile = NoiseProfile::default();
        let alias = vec!["justice".to_string(), "department".to_string()];
        let a = render_mention(&mut SplitMix64::new(4), &profile, &alias);
        let b = render_mention(&mut SplitMix64::new(4), &profile, &alias);
        assert_eq!(a, b);
    }
}
