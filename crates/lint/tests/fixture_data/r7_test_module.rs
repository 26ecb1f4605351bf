#[cfg(test)]
mod reference;

pub fn helper() -> u32 {
    1
}
