//! Table 1 (experimental machine) and Table 2 (experimental VMs).

use kyoto_sim::topology::MachineConfig;
use kyoto_workloads::spec::SpecApp;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Component name (e.g. "LLC").
    pub component: String,
    /// Its description.
    pub value: String,
}

/// Table 1: the experimental machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// The rows, in the paper's order.
    pub rows: Vec<Table1Row>,
}

/// Builds Table 1 from the paper's machine configuration.
pub fn table1() -> Table1 {
    let machine = MachineConfig::paper_machine();
    let kib = |bytes: u64| bytes / 1024;
    let rows = vec![
        Table1Row {
            component: "Main memory".into(),
            value: "8096 MB".into(),
        },
        Table1Row {
            component: "L1 cache".into(),
            value: format!(
                "L1 D {} KB, L1 I {} KB, {}-way",
                kib(machine.l1d.size_bytes),
                kib(machine.l1i.size_bytes),
                machine.l1d.ways
            ),
        },
        Table1Row {
            component: "L2 cache".into(),
            value: format!(
                "L2 U {} KB, {}-way",
                kib(machine.l2.size_bytes),
                machine.l2.ways
            ),
        },
        Table1Row {
            component: "LLC".into(),
            value: format!(
                "{} MB, {}-way",
                machine.llc.size_bytes / (1024 * 1024),
                machine.llc.ways
            ),
        },
        Table1Row {
            component: "Processor".into(),
            value: format!(
                "{} Socket, {} Cores/socket, {:.1} GHz",
                machine.sockets,
                machine.cores_per_socket,
                machine.freq_khz as f64 / 1_000_000.0
            ),
        },
    ];
    Table1 { rows }
}

impl Table1 {
    /// Renders the table as aligned text.
    pub fn to_table(&self) -> String {
        let mut out = String::from("Table 1: experimental machine\n");
        for row in &self.rows {
            out.push_str(&format!("  {:<12} {}\n", row.component, row.value));
        }
        out
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// The VM label used throughout the paper (`vsen1`, `vdis2`, ...).
    pub vm: String,
    /// The application the VM hosts.
    pub app: SpecApp,
}

/// Table 2: the sensitive and disruptive experimental VMs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2 {
    /// The rows, in the paper's order.
    pub rows: Vec<Table2Row>,
}

/// Builds Table 2 (Section 4 of the paper).
pub fn table2() -> Table2 {
    Table2 {
        rows: vec![
            Table2Row {
                vm: "vsen1".into(),
                app: SpecApp::Gcc,
            },
            Table2Row {
                vm: "vsen2".into(),
                app: SpecApp::Omnetpp,
            },
            Table2Row {
                vm: "vsen3".into(),
                app: SpecApp::Soplex,
            },
            Table2Row {
                vm: "vdis1".into(),
                app: SpecApp::Lbm,
            },
            Table2Row {
                vm: "vdis2".into(),
                app: SpecApp::Blockie,
            },
            Table2Row {
                vm: "vdis3".into(),
                app: SpecApp::Mcf,
            },
        ],
    }
}

impl Table2 {
    /// The application hosted by a paper VM label.
    pub fn app_of(&self, vm: &str) -> Option<SpecApp> {
        self.rows.iter().find(|r| r.vm == vm).map(|r| r.app)
    }

    /// Renders the table as aligned text.
    pub fn to_table(&self) -> String {
        let mut out = String::from("Table 2: experimental VMs\n");
        for row in &self.rows {
            out.push_str(&format!("  {:<6} {}\n", row.vm, row.app));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reports_the_paper_geometry() {
        let t = table1();
        assert_eq!(t.rows.len(), 5);
        let text = t.to_table();
        assert!(text.contains("L1 D 32 KB, L1 I 32 KB, 8-way"));
        assert!(text.contains("L2 U 256 KB, 8-way"));
        assert!(text.contains("10 MB, 20-way"));
        assert!(text.contains("1 Socket, 4 Cores/socket, 2.8 GHz"));
    }

    #[test]
    fn table2_matches_the_paper_mapping() {
        let t = table2();
        assert_eq!(t.app_of("vsen1"), Some(SpecApp::Gcc));
        assert_eq!(t.app_of("vsen2"), Some(SpecApp::Omnetpp));
        assert_eq!(t.app_of("vsen3"), Some(SpecApp::Soplex));
        assert_eq!(t.app_of("vdis1"), Some(SpecApp::Lbm));
        assert_eq!(t.app_of("vdis2"), Some(SpecApp::Blockie));
        assert_eq!(t.app_of("vdis3"), Some(SpecApp::Mcf));
        assert_eq!(t.app_of("nope"), None);
        assert!(t.to_table().contains("vdis2  blockie"));
    }
}
