//! The linter runs inside the CI gate over every source file in the
//! workspace, so it must be total: arbitrary (even non-UTF-8, even
//! unterminated-string) input may slow it down but never panic it.
//! The same holds for the symbol/graph layer behind rule d7: it parses
//! every workspace file on every gate run, so `scan_file` and
//! `Graph::build` must also be total.

use afraid_lint::graph::Graph;
use afraid_lint::rules::{annotation_hygiene, lint_source};
use afraid_lint::symbols::scan_file;
use afraid_lint::{lexer::tokenize, FileClass};
use proptest::prelude::*;

fn all_classes() -> [FileClass; 5] {
    [
        FileClass::default(),
        FileClass {
            deterministic: true,
            ..FileClass::default()
        },
        FileClass {
            deterministic: true,
            d1_exempt: true,
            d2_exempt: true,
            ..FileClass::default()
        },
        FileClass {
            deterministic: true,
            hot_path: true,
            ..FileClass::default()
        },
        FileClass {
            deterministic: true,
            concurrency: true,
            ..FileClass::default()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn tokenizer_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let toks = tokenize(&bytes);
        // Line numbers are 1-based and monotone.
        let mut prev = 1u32;
        for t in &toks {
            prop_assert!(t.line >= prev, "line numbers must be monotone");
            prev = t.line;
        }
    }

    #[test]
    fn lint_pipeline_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        for class in all_classes() {
            let report = lint_source("fuzz.rs", &bytes, class);
            for f in &report.findings {
                prop_assert!(f.line >= 1, "findings are 1-based");
            }
        }
        let _ = annotation_hygiene("fuzz.rs", &bytes);
    }

    // Bias the byte soup toward tokens the lexer special-cases:
    // comment openers, quotes, raw-string hashes, escapes.
    #[test]
    fn tokenizer_is_total_on_adversarial_syntax(
        picks in prop::collection::vec(0usize..24, 0..64)
    ) {
        const PIECES: [&str; 24] = [
            "/*", "*/", "//", "\"", "'", "r#\"", "r##", "#\"", "\\",
            "b\"", "c\"", "b'", "'a", "ident", "0x1f", "!", "[", "]",
            "cfg", "test", "(", ")", "lint:allow(d3)", "\n",
        ];
        let src: String = picks
            .iter()
            .filter_map(|&i| PIECES.get(i).copied())
            .collect();
        let _ = tokenize(src.as_bytes());
        let _ = lint_source("adv.rs", src.as_bytes(), FileClass {
            deterministic: true,
            hot_path: true,
            ..FileClass::default()
        });
    }

    // The symbol parser and graph builder are total on arbitrary
    // bytes.
    #[test]
    fn symbol_graph_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let syms = scan_file("fuzz.rs", &bytes);
        for s in &syms.structs {
            prop_assert!(s.line >= 1, "struct lines are 1-based");
        }
        for f in &syms.fns {
            prop_assert!(f.line >= 1, "fn lines are 1-based");
        }
        let g = Graph::build(&[syms]);
        let entries: Vec<String> = g.fns.iter().map(|f| f.name.clone()).collect();
        let entry_refs: Vec<&str> = entries.iter().map(String::as_str).collect();
        let _ = g.reachable(&entry_refs);
        let _ = g.stats(&entry_refs);
    }

    // Bias toward item syntax: nesting, generics, derives, impls,
    // unterminated groups — the shapes that stress the depth cap and
    // recovery paths in the item parser.
    #[test]
    fn symbol_graph_is_total_on_adversarial_syntax(
        picks in prop::collection::vec(0usize..28, 0..96)
    ) {
        const PIECES: [&str; 28] = [
            "struct", "enum", "fn", "impl", "for", "trait", "mod",
            "const", "static", "S", "name", ":", "u64", ",", "<", ">",
            "{", "}", "(", ")", "#[derive(Debug)]", "#[cfg(test)]",
            "where", "&str", "= \"v1\"", ";", ".unwrap()", "panic!(",
        ];
        let src: String = picks
            .iter()
            .filter_map(|&i| PIECES.get(i).copied())
            .map(|p| format!("{p} "))
            .collect();
        let syms = scan_file("adv.rs", src.as_bytes());
        let g = Graph::build(&[syms]);
        let _ = g.reachable(&["name"]);
        let _ = afraid_lint::wsrules::check_panic_reachability(&g, &["name"], &|_| true);
    }
}
