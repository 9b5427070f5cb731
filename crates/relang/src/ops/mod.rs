//! Automata operations: determinization, minimization, products,
//! state elimination, and language decision procedures.

pub mod ancestor;
pub mod canonical;
pub mod eliminate;
pub mod language;
pub mod minimize;
pub mod product;
pub mod relevance;
pub mod subset;

pub use ancestor::{AncestorSpace, Follow, Seed};
pub use canonical::{language_key, LanguageKey};
pub use eliminate::{dfa_to_regex, dfa_to_regex_with_order, language_reaching, EliminationOrder};
pub use language::{
    check_equivalent, check_equivalent_with, difference_witness, difference_witness_with,
    is_equivalent, is_subset, is_subset_with, regex_to_dfa, regex_to_dfa_with,
};
pub use minimize::minimize;
pub use product::{full_product, product2, Product};
pub use relevance::{ProductState, RelevanceProduct};
pub use subset::determinize;
