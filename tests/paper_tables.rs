//! The paper's Table 1 and Table 2 claims, checked on the reproduced rows
//! (`cgsim::paper_tables`).

mod table1 {
    use cgsim::paper_tables::table1::*;

    /// The headline claim (§5.2 / Table 1): every extracted graph reaches
    /// **at least 85 %** of the hand-optimized throughput, and the IIR
    /// example reaches parity.
    #[test]
    fn headline_claim_at_least_85_percent() {
        for row in compute(64) {
            let rel = row.rel_throughput_pct();
            assert!(
                rel >= 85.0,
                "{}: rel throughput {rel:.2}% below the paper's 85% floor",
                row.graph
            );
            assert!(
                rel <= 101.0,
                "{}: extracted faster than hand-optimized ({rel:.2}%)?",
                row.graph
            );
        }
    }

    #[test]
    fn iir_reaches_parity_others_do_not() {
        let rows = compute(64);
        let by_name = |n: &str| {
            rows.iter()
                .find(|r| r.graph == n)
                .unwrap()
                .rel_throughput_pct()
        };
        // Window-bound IIR: ≥ 99 %.
        assert!(by_name("IIR") >= 99.0, "IIR {:.2}%", by_name("IIR"));
        // Stream-bound kernels show a visible gap, like the paper's
        // 85–90 % band.
        assert!(by_name("bitonic") < 99.0);
        assert!(by_name("bilinear") < 99.0);
    }

    #[test]
    fn block_sizes_match_paper() {
        let rows = compute(16);
        let sizes: Vec<(String, u64)> = rows
            .iter()
            .map(|r| (r.graph.clone(), r.block_bytes))
            .collect();
        assert_eq!(
            sizes,
            vec![
                ("bitonic".to_owned(), 64),
                ("farrow".to_owned(), 4096),
                ("IIR".to_owned(), 8192),
                ("bilinear".to_owned(), 2048),
            ]
        );
    }

    #[test]
    fn results_are_deterministic() {
        let a = compute(32);
        let b = compute(32);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hand_ns, y.hand_ns);
            assert_eq!(x.extracted_ns, y.extracted_ns);
        }
    }
}

mod table2 {
    use cgsim::graphs::all_apps;
    use cgsim::paper_tables::table2::*;

    #[test]
    fn rows_complete_and_verify() {
        let rows = compute(1);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.cgsim.as_nanos() > 0);
            assert!(r.x86sim.as_nanos() > 0);
            assert!(r.aiesim.as_nanos() > 0);
        }
    }

    /// The §5.2 profiling claim: cgsim spends the overwhelming share of its
    /// runtime executing kernels, not synchronising. (The paper reports
    /// 99.94 % on bitonic; we assert a conservative bound that holds on any
    /// host.)
    #[test]
    fn cooperative_runtime_is_kernel_dominated() {
        let apps = all_apps();
        let iir = apps.iter().find(|a| a.name() == "IIR").unwrap();
        let row = measure_app(iir.as_ref(), 1);
        assert!(
            row.kernel_fraction > 0.80,
            "kernel fraction {:.4} unexpectedly low",
            row.kernel_fraction
        );
    }
}
