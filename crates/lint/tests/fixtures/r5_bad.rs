//! R5 bad: a suppression naming a rule that does not exist.

pub fn widget() -> u32 {
    // sj-lint: allow(made-up-rule, this rule name is not real)
    7
}
