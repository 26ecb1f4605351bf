//! The entity type system.
//!
//! The paper limits type coverage to four common entity types (§III):
//! Person, Location, Organization and Miscellaneous (WNUT17's Product,
//! Creative-work and Group are folded into Miscellaneous). The Entity
//! Classifier additionally uses an L+1-th *non-entity* class (§V-D);
//! that class is represented here by `Option<EntityType>::None` where it
//! matters, with [`EntityType::class_index`] providing the stable
//! classifier indices.

use std::fmt;

/// One of the L = 4 preset entity types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityType {
    /// People: politicians, athletes, artists ("beshear", "trump").
    Person,
    /// Geographic locations ("italy", "US", "canada").
    Location,
    /// Organizations ("NHS", "Justice Department").
    Organization,
    /// Everything else the paper groups here: diseases, products,
    /// creative works, groups ("coronavirus", "Fireflies").
    Miscellaneous,
}

impl EntityType {
    /// The number of preset entity types, `L`.
    pub const COUNT: usize = 4;

    /// All types in classifier-index order.
    pub const ALL: [EntityType; Self::COUNT] = [
        EntityType::Person,
        EntityType::Location,
        EntityType::Organization,
        EntityType::Miscellaneous,
    ];

    /// Stable dense index in `0..L`.
    pub fn index(self) -> usize {
        match self {
            EntityType::Person => 0,
            EntityType::Location => 1,
            EntityType::Organization => 2,
            EntityType::Miscellaneous => 3,
        }
    }

    /// Inverse of [`Self::index`].
    ///
    /// # Panics
    /// Panics when `i >= EntityType::COUNT`.
    pub fn from_index(i: usize) -> Self {
        Self::ALL[i]
    }

    /// Classifier class index over L+1 classes: entity types map to
    /// `0..L`, the non-entity class is `L` (`Self::COUNT`).
    pub fn class_index(ty: Option<EntityType>) -> usize {
        match ty {
            Some(t) => t.index(),
            None => Self::COUNT,
        }
    }

    /// Inverse of [`Self::class_index`].
    pub fn from_class_index(i: usize) -> Option<EntityType> {
        if i < Self::COUNT {
            Some(Self::from_index(i))
        } else {
            None
        }
    }

    /// Conventional short code ("PER", "LOC", "ORG", "MISC").
    pub fn code(self) -> &'static str {
        match self {
            EntityType::Person => "PER",
            EntityType::Location => "LOC",
            EntityType::Organization => "ORG",
            EntityType::Miscellaneous => "MISC",
        }
    }
}

impl fmt::Display for EntityType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for ty in EntityType::ALL {
            assert_eq!(EntityType::from_index(ty.index()), ty);
        }
    }

    #[test]
    fn class_index_covers_l_plus_one() {
        assert_eq!(EntityType::class_index(Some(EntityType::Person)), 0);
        assert_eq!(EntityType::class_index(None), EntityType::COUNT);
        assert_eq!(EntityType::from_class_index(EntityType::COUNT), None);
        assert_eq!(EntityType::from_class_index(2), Some(EntityType::Organization));
    }

    #[test]
    fn display_uses_codes() {
        assert_eq!(EntityType::Miscellaneous.to_string(), "MISC");
    }
}
