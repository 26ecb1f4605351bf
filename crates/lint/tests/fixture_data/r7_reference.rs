pub fn check() -> u32 {
    super::helper()
}
