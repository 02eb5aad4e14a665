//! System catalog: tables and indexes by name.
//!
//! Stored in `BTreeMap`s so that name listings (and anything that walks the
//! catalog, e.g. checkpointing every table) iterate in a deterministic sorted
//! order — noftl-lint's determinism pass bans hash-ordered containers in this
//! crate.

use std::collections::BTreeMap;

use crate::btree::BTree;
use crate::heap::HeapFile;

/// Registry of heap files (tables) and B+-tree indexes.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, HeapFile>,
    indexes: BTreeMap<String, BTree>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table. Returns `false` if the name already exists.
    pub fn add_table(&mut self, table: HeapFile) -> bool {
        let name = table.name().to_string();
        if self.tables.contains_key(&name) {
            return false;
        }
        self.tables.insert(name, table);
        true
    }

    /// Register an index under `name`. Returns `false` if the name exists.
    pub fn add_index(&mut self, name: impl Into<String>, index: BTree) -> bool {
        let name = name.into();
        if self.indexes.contains_key(&name) {
            return false;
        }
        self.indexes.insert(name, index);
        true
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Option<&HeapFile> {
        self.tables.get(name)
    }

    /// Mutably borrow a table.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut HeapFile> {
        self.tables.get_mut(name)
    }

    /// Borrow an index.
    pub fn index(&self, name: &str) -> Option<&BTree> {
        self.indexes.get(name)
    }

    /// Mutably borrow an index.
    pub fn index_mut(&mut self, name: &str) -> Option<&mut BTree> {
        self.indexes.get_mut(name)
    }

    /// Remove a table, returning it (so its pages can be freed).
    pub fn drop_table(&mut self, name: &str) -> Option<HeapFile> {
        self.tables.remove(name)
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_tables() {
        let mut cat = Catalog::new();
        assert!(cat.add_table(HeapFile::new("warehouse")));
        assert!(cat.add_table(HeapFile::new("district")));
        assert!(!cat.add_table(HeapFile::new("warehouse")), "duplicate rejected");
        assert!(cat.table("warehouse").is_some());
        assert!(cat.table("missing").is_none());
        assert_eq!(cat.table_names(), vec!["district", "warehouse"]);
    }

    #[test]
    fn drop_table_removes_it() {
        let mut cat = Catalog::new();
        cat.add_table(HeapFile::new("tmp"));
        let dropped = cat.drop_table("tmp").unwrap();
        assert_eq!(dropped.name(), "tmp");
        assert!(cat.table("tmp").is_none());
        assert!(cat.drop_table("tmp").is_none());
    }
}
