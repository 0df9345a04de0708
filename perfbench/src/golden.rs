//! Output digests and work counters recorded at [`crate::DEFAULT_SEED`]. A
//! run at that seed must reproduce every one of them; any difference is a
//! failed operation.
//! They are FNV-1a digests of each figure grid's JSON report, each city
//! world's flood-outcome stream, each memoized `dimmerd` report and the
//! trained weights.

/// The recorded `(name, digest)` pairs of `workload`.
pub fn digests(workload: &str) -> &'static [(&'static str, u64)] {
    match workload {
        "figures" => &[
            ("fig5", 0xdb12_8f3e_0e3b_9651),
            ("fig6", 0x11fd_57f0_b3a7_ddde),
            ("fig7", 0xa18c_876c_dd93_8ed7),
            ("dynamics:churn-storm", 0xd1e8_86f1_11e2_29ad),
            ("dynamics:link-fade", 0xa06e_e9ba_f359_58b4),
            ("dynamics:roaming-jammer", 0x224a_6c9f_5c6b_1cde),
            ("dynamics:flash-crowd", 0x1c82_a40b_e374_f353),
        ],
        "city" => &[
            ("city_6x6x32", 0x84be_628d_dd94_bf0b),
            ("campus_12x48", 0xc1d9_124e_9b0f_cc15),
            ("warehouse_8x40", 0xa121_0cbe_d747_3b3b),
            ("grid_50x50", 0x0c00_c0f5_ff05_0d53),
            ("grid_100x100", 0x2b13_c70d_e0ea_7a5d),
        ],
        "serve" => &[
            ("dynamics:churn-storm", 0x52fd_e8a8_79e7_d07a),
            ("dynamics:link-fade", 0xcd8d_4a0c_7cfa_f388),
            ("dynamics:roaming-jammer", 0x29ea_d04a_7f49_7a84),
            ("dynamics:flash-crowd", 0xc5f1_3616_a37d_7111),
            ("fig5", 0xc46c_342a_bad6_23db),
            ("fig6", 0x9118_051a_6fe0_594e),
            ("fig7", 0x3154_0f79_00bc_6c96),
        ],
        "train" => &[
            ("traces", 0x3685_ca4b_09e8_2f1e),
            ("offline_policy", 0x3c75_f11a_7e26_2bf9),
            ("farm_policy", 0xe31a_a084_0bb4_bfed),
        ],
        _ => &[],
    }
}

/// The recorded work counters of one pass of `workload`. `serve` has none:
/// how many requests a closed loop completes depends on the clock.
pub fn counters(workload: &str) -> &'static [(&'static str, u64)] {
    match workload {
        "figures" => &[
            ("rounds", 43_600),
            ("grids", 7),
            ("decisions", 38_200),
            ("slot_calls", 3_088_886),
            ("patches", 459),
        ],
        "city" => &[("floods", 80), ("simulated_slots", 10_146)],
        "train" => &[
            ("transitions", 60_000),
            ("farm_episodes", 667),
            ("env_steps", 40_980),
        ],
        _ => &[],
    }
}
