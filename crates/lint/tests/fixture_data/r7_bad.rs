pub fn orphan() -> u32 {
    7
}

pub fn countdown(n: u32) -> u32 {
    if n == 0 { 0 } else { countdown(n - 1) }
}

pub(crate) fn crate_private() {}

pub struct Point {
    pub x: f32,
}

pub fn origin() -> Point {
    Point { x: 0.0 }
}
