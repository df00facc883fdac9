//! Keeps the CI smoke fixtures live: every request file under `fixtures/`
//! must produce its committed `.expected.json` response byte-for-byte.
//!
//! The CI smoke job drives the same files through a real `numagap serve`
//! process with curl and diffs the bodies; this test pins the contract
//! in-process so a drift shows up in `cargo test` before it breaks CI.

use std::fs;
use std::path::Path;

use numagap_serve::Service;

#[test]
fn committed_fixtures_match_the_live_service() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut checked = 0;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap();
        if !name.ends_with(".json") || name.ends_with(".expected.json") {
            continue;
        }
        let expected_path = path.with_file_name(format!(
            "{}.expected.json",
            name.strip_suffix(".json").unwrap()
        ));
        let request = fs::read_to_string(&path).unwrap();
        let expected = fs::read_to_string(&expected_path)
            .unwrap_or_else(|e| panic!("fixture {name} has no committed expected response: {e}"));
        let service = Service::new(2, 4);
        let answer = service
            .whatif(&request)
            .unwrap_or_else(|e| panic!("fixture {name} rejected: {e}"));
        assert_eq!(
            answer.body, expected,
            "fixture {name}: live response differs from the committed \
             expected body — if the change is intentional, regenerate the \
             .expected.json files (see docs/ARCHITECTURE.md, serve section)"
        );
        checked += 1;
    }
    assert_eq!(
        checked, 3,
        "expected the replay, analytic and spellings smoke fixtures"
    );
}
