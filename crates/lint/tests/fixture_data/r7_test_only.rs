pub fn helper() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn uses_helper() {
        assert_eq!(super::helper(), 1);
    }
}
