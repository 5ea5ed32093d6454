//! The interned name handle against the `String` it replaces: one handle
//! per distinct string across threads, and the same serde, `Debug` and
//! `Display` output.

use std::sync::Barrier;
use trips_data::Name;

#[test]
fn two_threads_interning_one_string_get_one_handle() {
    for round in 0..50 {
        let text = format!("two-thread name {round}");
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let intern = || {
                barrier.wait();
                Name::new(&text)
            };
            let a = s.spawn(intern);
            let b = s.spawn(intern);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "round {round}");
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "round {round}");
        assert_eq!(Name::new(&text), a);
    }
}

#[test]
fn output_equals_the_strings() {
    for text in [
        "stay",
        "Center Hall (0F)",
        "",
        "quote \" and \\ and \u{e9}\n",
    ] {
        let name = Name::new(text);
        let owned = text.to_string();
        assert_eq!(format!("{name:?}"), format!("{owned:?}"));
        assert_eq!(format!("{name:#?}"), format!("{owned:#?}"));
        assert_eq!(format!("{name}"), format!("{owned}"));
        assert_eq!(format!("{name:>30}|"), format!("{owned:>30}|"));
        assert_eq!(
            serde_json::to_string(&name).unwrap(),
            serde_json::to_string(&owned).unwrap()
        );
        let json = serde_json::to_string(&owned).unwrap();
        let back: Name = serde_json::from_str(&json).unwrap();
        assert_eq!(back, name);
    }
}

#[test]
fn a_non_string_fails_as_a_string_would() {
    let name = serde_json::from_str::<Name>("42").unwrap_err().to_string();
    let owned = serde_json::from_str::<String>("42")
        .unwrap_err()
        .to_string();
    assert_eq!(name, owned);
}
