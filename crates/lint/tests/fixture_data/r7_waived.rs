// ngl-lint: allow(R7, called by name from a dynamically loaded plugin)
pub fn plugin_entry() -> u32 {
    1
}
