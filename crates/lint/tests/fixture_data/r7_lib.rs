pub fn public_api() -> u32 {
    2
}
