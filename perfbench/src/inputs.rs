//! The three workloads: what each one generates from the seed, how the
//! generated inputs are written out as files (view, DDL, CSV, XSLT), and
//! how they are loaded back. The program only ever sees this data.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use xvc_bench::random_stylesheet::{random_stylesheet, StylesheetConfig};
use xvc_bench::synthetic::all_regions_view;
use xvc_bench::workload::{generate, WorkloadConfig};
use xvc_core::paper_fixtures::{figure1_view, sample_database};
use xvc_rel::{ColumnDef, ColumnType, Database, TableSchema, Value};
use xvc_view::SchemaTree;
use xvc_xslt::parse::FIGURE4_XSLT;

/// Hotel generator scale of the `paper` workload and of the served data
/// (741 rows).
const PAPER_SCALE: usize = 2;
/// Regions of the `breadth` workload; 5 customers and 4 orders each on
/// average (520 rows).
const BREADTH_REGIONS: usize = 20;
/// Stylesheets in the `compile` corpus from each generator preset:
/// default, recursion-heavy, wide fan-out. A wide fan-out stylesheet costs
/// about seven times as much as the others, so those make up the tail of
/// every `compile` timing; half the corpus is of them so that the tail
/// rests on enough of them to repeat from seed to seed.
const COMPILE_PER_PRESET: [usize; 3] = [60, 60, 120];
/// Candidates generated per stylesheet kept: the corpus takes evenly
/// spaced ranks of the candidates ordered by text length, so its spread of
/// stylesheet sizes (and so its cost percentiles) hardly moves with the
/// seed while every stylesheet in it still comes from the seed.
const COMPILE_POOL_FACTOR: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Paper,
    Breadth,
    Compile,
}

/// One workload; its inputs come from [`generate_inputs`].
#[derive(Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        kind: Kind::Paper,
        name: "paper",
    },
    Workload {
        kind: Kind::Breadth,
        name: "breadth",
    },
    Workload {
        kind: Kind::Compile,
        name: "compile",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything a workload hands to the program, as text.
pub struct Generated {
    pub view_text: String,
    pub ddl_text: String,
    /// `(table, CSV text)` per table.
    pub tables: Vec<(String, String)>,
    /// The tables `xvc serve` loads. The same as `tables`, except on
    /// `compile`: its 20-row database would make every served request a
    /// fraction of a millisecond, timing only the host's scheduler, so its
    /// server gets the `paper` hotel data.
    pub served_tables: Vec<(String, String)>,
    /// Stylesheets in XSLT syntax, each composed and published on its
    /// own; empty for `breadth`, which publishes the view itself (the
    /// `xvc publish` path).
    pub xslt_texts: Vec<String>,
    /// The stylesheet `xvc serve` composes (Figure 4), if any.
    pub served_xslt: Option<String>,
    /// The served DML stream alternates these two statements, so the
    /// database moves between two states.
    pub insert_sql: String,
    pub delete_sql: String,
}

/// A tiny deterministic generator (SplitMix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub fn generate_inputs(kind: Kind, seed: u64) -> Generated {
    let mut rng = Rng::new(seed);
    let (view, db, xslt_texts) = match kind {
        Kind::Paper => (
            figure1_view(),
            hotel_database(PAPER_SCALE, &mut rng),
            vec![FIGURE4_XSLT.to_owned()],
        ),
        Kind::Breadth => (all_regions_view(), breadth_database(&mut rng), Vec::new()),
        Kind::Compile => {
            let view = figure1_view();
            let db = sample_database();
            let corpus = compile_corpus(&view, &db, &mut rng);
            (view, db, corpus)
        }
    };
    let served_xslt = (kind != Kind::Breadth).then(|| FIGURE4_XSLT.to_owned());
    let served_db = (kind == Kind::Compile).then(|| hotel_database(PAPER_SCALE, &mut rng));
    let served = served_db.as_ref().unwrap_or(&db);
    let (insert_sql, delete_sql) = match kind {
        Kind::Breadth => order_dml(served, &mut rng),
        _ => confroom_dml(served, &mut rng),
    };
    Generated {
        view_text: render_view(&view),
        ddl_text: render_ddl(&db),
        tables: render_tables(&db),
        served_tables: render_tables(served),
        xslt_texts,
        served_xslt,
        insert_sql,
        delete_sql,
    }
}

/// The hotel generator's database at `scale`, seeded from `rng`.
fn hotel_database(scale: usize, rng: &mut Rng) -> Database {
    generate(&WorkloadConfig {
        seed: rng.next_u64(),
        ..WorkloadConfig::scale(scale)
    })
}

fn render_tables(db: &Database) -> Vec<(String, String)> {
    db.iter()
        .map(|t| (t.schema.name.clone(), render_csv(&t.schema, &t.rows())))
        .collect()
}

/// Random stylesheets over the Figure 1 view from the three presets,
/// stratified by text length.
fn compile_corpus(view: &SchemaTree, db: &Database, rng: &mut Rng) -> Vec<String> {
    let catalog = db.catalog();
    let presets = [
        StylesheetConfig::default(),
        StylesheetConfig::recursion_heavy(),
        StylesheetConfig::wide_fanout(),
    ];
    let mut corpus = Vec::with_capacity(COMPILE_PER_PRESET.iter().sum());
    for (preset, per_preset) in presets.into_iter().zip(COMPILE_PER_PRESET) {
        let pool = per_preset * COMPILE_POOL_FACTOR;
        let mut candidates: Vec<String> = (0..pool)
            .map(|_| random_stylesheet(view, &catalog, rng.next_u64(), preset).to_xslt())
            .collect();
        candidates.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        corpus.extend(
            (0..per_preset).map(|j| candidates[(2 * j + 1) * pool / (2 * per_preset)].clone()),
        );
    }
    // Shuffled, so any stretch of the corpus mixes sizes and presets.
    rng.shuffle(&mut corpus);
    corpus
}

/// `region → customer → orders` with 5 customers per region and 4 orders
/// per customer on average: every region and customer gets one, the rest
/// are spread at random, and each table's row order is shuffled.
fn breadth_database(rng: &mut Rng) -> Database {
    let regions = BREADTH_REGIONS;
    let customers = 5 * regions;
    let orders = 4 * customers;
    let int = |name: &str| ColumnDef::new(name, ColumnType::Int);
    let mut db = Database::new();
    for (table, columns) in [
        (
            "region",
            vec![int("id"), ColumnDef::new("name", ColumnType::Str)],
        ),
        (
            "customer",
            vec![
                int("id"),
                int("region_id"),
                ColumnDef::new("name", ColumnType::Str),
            ],
        ),
        ("orders", vec![int("id"), int("customer_id"), int("total")]),
    ] {
        db.create_table(TableSchema::new(table, columns).expect("valid schema"));
    }
    let owner = |count: usize, parents: usize, rng: &mut Rng| -> Vec<i64> {
        (0..count)
            .map(|i| if i < parents { i } else { rng.below(parents) } as i64)
            .collect()
    };
    let region_of = owner(customers, regions, rng);
    let customer_of = owner(orders, customers, rng);
    let mut rows = vec![
        (0..regions as i64)
            .map(|r| vec![Value::Int(r), Value::Str(format!("region-{r}"))])
            .collect::<Vec<_>>(),
        region_of
            .iter()
            .enumerate()
            .map(|(c, &r)| {
                vec![
                    Value::Int(c as i64),
                    Value::Int(r),
                    Value::Str(format!("customer-{c}")),
                ]
            })
            .collect(),
        customer_of
            .iter()
            .enumerate()
            .map(|(o, &c)| {
                vec![
                    Value::Int(o as i64),
                    Value::Int(c),
                    Value::Int(rng.below(1000) as i64),
                ]
            })
            .collect(),
    ];
    for (table, rows) in ["region", "customer", "orders"].iter().zip(&mut rows) {
        rng.shuffle(rows);
        for row in rows.drain(..) {
            db.insert(table, row).expect("row matches schema");
        }
    }
    db
}

fn int_column(db: &Database, table: &str, column: &str) -> Vec<i64> {
    let t = db.table(table).expect("generated table");
    let idx = t.schema.column_index(column).expect("generated column");
    t.rows()
        .iter()
        .map(|row| match row[idx] {
            Value::Int(v) => v,
            _ => 0,
        })
        .collect()
}

/// Adds and removes one conference room of a seeded luxury hotel (one the
/// Figure 1 view publishes), so both served states differ.
fn confroom_dml(db: &Database, rng: &mut Rng) -> (String, String) {
    let hotels: Vec<i64> = int_column(db, "hotel", "hotelid")
        .into_iter()
        .zip(int_column(db, "hotel", "starrating"))
        .filter(|&(_, stars)| stars > 4)
        .map(|(id, _)| id)
        .collect();
    let hotel = hotels[rng.below(hotels.len())];
    let id = int_column(db, "confroom", "c_id")
        .into_iter()
        .max()
        .unwrap_or(0)
        + 1;
    let capacity = 100 + rng.below(400);
    (
        format!("INSERT INTO confroom VALUES ({id}, {hotel}, 99, {capacity}, 700)"),
        format!("DELETE FROM confroom WHERE c_id = {id}"),
    )
}

/// Adds and removes one order of a seeded customer.
fn order_dml(db: &Database, rng: &mut Rng) -> (String, String) {
    let customers = int_column(db, "customer", "id");
    let customer = customers[rng.below(customers.len())];
    let id = int_column(db, "orders", "id")
        .into_iter()
        .max()
        .unwrap_or(0)
        + 1;
    let total = rng.below(1000);
    (
        format!("INSERT INTO orders VALUES ({id}, {customer}, {total})"),
        format!("DELETE FROM orders WHERE id = {id}"),
    )
}

/// The view in `xvc`'s file syntax (`node TAG $BV { query: SQL; ... }`).
fn render_view(tree: &SchemaTree) -> String {
    fn node(tree: &SchemaTree, vid: xvc_view::ViewNodeId, depth: usize, out: &mut String) {
        let n = tree.node(vid).expect("non-root node");
        let query = n
            .query
            .as_ref()
            .expect("every node of a publishing view has a query");
        let pad = "    ".repeat(depth);
        let _ = writeln!(out, "{pad}node {} ${} {{", n.tag, n.bv);
        let _ = writeln!(out, "{pad}    query: {};", query.to_sql_inline());
        for &child in tree.children(vid) {
            node(tree, child, depth + 1, out);
        }
        let _ = writeln!(out, "{pad}}}");
    }
    let mut out = String::new();
    for &top in tree.children(tree.root()) {
        node(tree, top, 0, &mut out);
    }
    out
}

fn render_ddl(db: &Database) -> String {
    let mut out = String::new();
    for schema in db.catalog().iter() {
        let columns: Vec<String> = schema
            .columns
            .iter()
            .map(|c| {
                let ty = match c.ty {
                    ColumnType::Int => "INT",
                    ColumnType::Float => "FLOAT",
                    ColumnType::Str => "TEXT",
                };
                let constraint = if c.primary_key {
                    " PRIMARY KEY"
                } else if c.not_null {
                    " NOT NULL"
                } else {
                    ""
                };
                format!("{} {ty}{constraint}", c.name)
            })
            .collect();
        let _ = writeln!(
            out,
            "CREATE TABLE {} ({});",
            schema.name,
            columns.join(", ")
        );
    }
    out
}

fn render_csv(schema: &TableSchema, rows: &[Vec<Value>]) -> String {
    let mut out = schema.column_names().join(",");
    out.push('\n');
    for row in rows {
        let fields: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Int(i) => i.to_string(),
                Value::Float(f) => format!("{f:?}"),
                Value::Str(s) => format!("\"{}\"", s.replace('"', "\"\"")),
                Value::Bool(b) => b.to_string(),
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// Where [`write_files`] put a workload's inputs.
pub struct Files {
    pub view: PathBuf,
    pub ddl: PathBuf,
    pub data: PathBuf,
    /// The stylesheet `xvc serve` composes (the first one), if any.
    pub xslt: Option<PathBuf>,
}

pub fn write_files(dir: &Path, g: &Generated) -> std::io::Result<Files> {
    let data = dir.join("data");
    std::fs::create_dir_all(&data)?;
    let files = Files {
        view: dir.join("view.view"),
        ddl: dir.join("schema.sql"),
        data,
        xslt: g.served_xslt.as_ref().map(|_| dir.join("stylesheet.xsl")),
    };
    std::fs::write(&files.view, &g.view_text)?;
    std::fs::write(&files.ddl, &g.ddl_text)?;
    for (table, csv) in &g.served_tables {
        std::fs::write(files.data.join(format!("{table}.csv")), csv)?;
    }
    if let (Some(path), Some(text)) = (&files.xslt, &g.served_xslt) {
        std::fs::write(path, text)?;
    }
    Ok(files)
}

/// Parses the view and builds the database from DDL and CSV text, as
/// `xvc` does from files.
pub fn load(
    view_text: &str,
    ddl_text: &str,
    tables: &[(String, String)],
) -> Result<(SchemaTree, Database), String> {
    let view = xvc_view::parse_view(view_text).map_err(|e| format!("view: {e}"))?;
    let mut db = xvc_rel::database_from_ddl(ddl_text).map_err(|e| format!("ddl: {e}"))?;
    for (table, csv) in tables {
        xvc_rel::load_csv(&mut db, table, csv).map_err(|e| format!("{table}.csv: {e}"))?;
    }
    Ok((view, db))
}
