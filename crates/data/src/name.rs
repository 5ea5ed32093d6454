//! Interned names: the event labels and region names that mobility
//! semantics carry.
//!
//! A [`Name`] is a `Copy` handle to a string held once in a process-wide,
//! append-only symbol table. Two handles are equal exactly when they point
//! at the same table entry, so comparing them is a pointer compare, and
//! copying one costs nothing. The handle derefs to `str`, and its serde,
//! `Debug` and `Display` forms are those of the `String` it stands for, so
//! every byte format that carried a `String` is unchanged.
//!
//! Entries are never freed. The table stays small because names are
//! interned only where a bounded vocabulary is read: the DSM's region
//! names, the event model's labels, and the names a journal, snapshot or
//! wire answer carries (which were themselves produced from those).

use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;
use std::sync::{OnceLock, PoisonError, RwLock};

/// An interned string: a `Copy` handle into the process-wide name table.
#[derive(Clone, Copy)]
pub struct Name(&'static str);

fn table() -> &'static RwLock<HashSet<&'static str>> {
    static TABLE: OnceLock<RwLock<HashSet<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(RwLock::default)
}

impl Name {
    /// The handle of `s`, adding `s` to the table if it is new.
    ///
    /// A poisoned lock is taken over: the one update is a single `insert`
    /// of an already leaked string, so the set is valid at every step.
    pub fn new(s: &str) -> Name {
        let read = table().read().unwrap_or_else(PoisonError::into_inner);
        if let Some(&held) = read.get(s) {
            return Name(held);
        }
        drop(read);
        let mut write = table().write().unwrap_or_else(PoisonError::into_inner);
        if let Some(&held) = write.get(s) {
            return Name(held);
        }
        let held: &'static str = Box::leak(Box::from(s));
        write.insert(held);
        Name(held)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

impl From<Name> for String {
    fn from(n: Name) -> String {
        n.0.to_owned()
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

impl Serialize for Name {
    fn to_value(&self) -> Value {
        self.0.to_value()
    }
}

impl Deserialize for Name {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v.as_str() {
            Some(s) => Ok(Name::new(s)),
            // `String`'s own error, so a bad document reads the same.
            None => String::from_value(v).map(Name::from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_share_one_handle() {
        let a = Name::new("Adidas (0F-1)");
        let b = Name::from(String::from("Adidas (0F-1)"));
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_ne!(a, Name::new("Nike (0F-2)"));
        assert_eq!(a, "Adidas (0F-1)");
        assert_eq!(Name::new(""), Name::from(""));
    }
}
