mod inner {
    pub fn reexported_only() -> u32 {
        3
    }

    pub fn called() -> u32 {
        4
    }
}

pub use inner::{called, reexported_only};
