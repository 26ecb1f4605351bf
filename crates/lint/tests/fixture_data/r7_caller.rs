#[test]
fn calls_public_api() {
    assert_eq!(fixture::public_api(), 2);
}
