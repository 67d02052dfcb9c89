//! Co-extraction of referenced declarations (§4.6).
//!
//! Kernel bodies may call helper functions, read constant lookup tables or
//! use custom data types defined at global scope in the prototype file. The
//! extractor captures not only the direct dependencies of each kernel but
//! also transitive ones, plus the file's import (`use`) directives — while
//! letting each realm blacklist simulation-only imports that must not reach
//! hardware builds.

use crate::lexer::lex;
use crate::parse::{Item, ItemKind, KernelDef};
use std::collections::HashSet;

/// Per-realm import blacklist: a `use` item whose path contains any of
/// these segments is dropped from the extracted source.
#[derive(Clone, Debug, Default)]
pub struct Blacklist {
    patterns: Vec<String>,
}

impl Blacklist {
    /// The default AIE blacklist: the simulation framework itself plus
    /// host-only std modules have no hardware equivalent.
    pub fn aie_default() -> Self {
        Blacklist {
            patterns: vec![
                "cgsim_runtime".into(),
                "std::io".into(),
                "std::fs".into(),
                "std::thread".into(),
                "println".into(),
            ],
        }
    }

    /// An empty blacklist.
    pub fn none() -> Self {
        Blacklist::default()
    }

    /// Add a pattern.
    pub fn with(mut self, pattern: impl Into<String>) -> Self {
        self.patterns.push(pattern.into());
        self
    }

    /// Whether a source snippet (a `use` line) is banned.
    pub fn bans(&self, text: &str) -> bool {
        self.patterns.iter().any(|p| text.contains(p.as_str()))
    }
}

/// The outcome of dependency resolution for one kernel (or one realm
/// subproject): items to copy, in original source order.
#[derive(Clone, Debug, PartialEq)]
pub struct CoExtraction {
    /// Indices into the scanned item list, sorted by source position.
    pub item_indices: Vec<usize>,
}

impl CoExtraction {
    /// Concatenate the selected items' source text, in file order.
    pub fn render(&self, items: &[Item], source: &str) -> String {
        let mut out = String::new();
        for &i in &self.item_indices {
            out.push_str(items[i].span.text(source).trim_end());
            out.push_str("\n\n");
        }
        out
    }
}

/// Compute the transitive closure of global items referenced by the given
/// kernels' bodies, plus non-blacklisted `use` directives.
pub fn co_extract(
    kernels: &[&KernelDef],
    items: &[Item],
    source: &str,
    blacklist: &Blacklist,
) -> CoExtraction {
    // Seeds: identifiers appearing in the kernel bodies.
    let mut wanted: HashSet<String> = HashSet::new();
    for k in kernels {
        let body = k.body_span.text(source);
        if let Ok(tokens) = lex(body) {
            for t in tokens {
                if let Some(id) = t.ident() {
                    wanted.insert(id.to_owned());
                }
            }
        }
        // Port element types may be user-defined.
        for p in &k.ports {
            wanted.insert(p.elem_ty.clone());
        }
    }

    // Transitive closure over named items.
    let mut selected: HashSet<usize> = HashSet::new();
    let mut changed = true;
    while changed {
        changed = false;
        for (idx, item) in items.iter().enumerate() {
            if selected.contains(&idx) {
                continue;
            }
            let Some(name) = &item.name else { continue };
            if !matches!(
                item.kind,
                ItemKind::Fn
                    | ItemKind::Const
                    | ItemKind::Static
                    | ItemKind::Struct
                    | ItemKind::Enum
                    | ItemKind::TypeAlias
            ) {
                continue;
            }
            if wanted.contains(name) {
                selected.insert(idx);
                changed = true;
                for r in &item.referenced {
                    wanted.insert(r.clone());
                }
            }
        }
    }

    // Use directives, minus the blacklist.
    for (idx, item) in items.iter().enumerate() {
        if item.kind == ItemKind::Use && !blacklist.bans(item.span.text(source)) {
            selected.insert(idx);
        }
    }

    let mut item_indices: Vec<usize> = selected.into_iter().collect();
    item_indices.sort_by_key(|&i| items[i].span.start);
    CoExtraction { item_indices }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::scan;

    const SRC: &str = r#"
use std::io::Write;
use core::f32::consts::PI;

/// Only used by helper_b — must still be co-extracted (transitive).
const DEEP_TABLE: [f32; 2] = [0.5, 0.25];

const UNUSED_TABLE: [f32; 2] = [9.0, 9.0];

fn helper_b(x: f32) -> f32 {
    x * DEEP_TABLE[0]
}

fn helper_a(x: f32) -> f32 {
    helper_b(x) + PI
}

struct Pixel { r: u8, g: u8 }

fn unrelated() -> u32 { 7 }

compute_kernel! {
    #[realm(aie)]
    pub fn k(input: ReadPort<Pixel>, out: WritePort<f32>) {
        while let Some(p) = input.get().await {
            out.put(helper_a(p.r as f32)).await;
        }
    }
}
"#;

    fn run(blacklist: &Blacklist) -> (String, Vec<String>) {
        let r = scan(SRC).unwrap();
        let kernels: Vec<&crate::parse::KernelDef> = r.kernels.iter().collect();
        let co = co_extract(&kernels, &r.items, SRC, blacklist);
        let names: Vec<String> = co
            .item_indices
            .iter()
            .filter_map(|&i| r.items[i].name.clone())
            .collect();
        (co.render(&r.items, SRC), names)
    }

    #[test]
    fn direct_and_transitive_dependencies_captured() {
        let (text, names) = run(&Blacklist::none());
        assert!(names.contains(&"helper_a".to_owned()));
        assert!(names.contains(&"helper_b".to_owned())); // transitive
        assert!(names.contains(&"DEEP_TABLE".to_owned())); // transitive
        assert!(names.contains(&"Pixel".to_owned())); // port element type
        assert!(!names.contains(&"unrelated".to_owned()));
        assert!(!names.contains(&"UNUSED_TABLE".to_owned()));
        assert!(text.contains("fn helper_b"));
    }

    #[test]
    fn use_directives_included() {
        let (text, _) = run(&Blacklist::none());
        assert!(text.contains("use std::io::Write;"));
        assert!(text.contains("use core::f32::consts::PI;"));
    }

    #[test]
    fn blacklist_filters_simulation_imports() {
        let (text, _) = run(&Blacklist::aie_default());
        assert!(!text.contains("std::io"));
        assert!(text.contains("core::f32::consts::PI"));
    }

    #[test]
    fn items_render_in_source_order() {
        let (text, _) = run(&Blacklist::none());
        let pos_deep = text.find("DEEP_TABLE").unwrap();
        let pos_b = text.find("fn helper_b").unwrap();
        let pos_a = text.find("fn helper_a").unwrap();
        assert!(pos_deep < pos_b && pos_b < pos_a);
    }

    #[test]
    fn doc_comment_travels_with_item() {
        let (text, _) = run(&Blacklist::none());
        assert!(text.contains("Only used by helper_b"));
    }

    #[test]
    fn custom_blacklist_pattern() {
        let bl = Blacklist::none().with("consts");
        let (text, _) = run(&bl);
        assert!(!text.contains("use core::f32::consts::PI;"));
    }
}
