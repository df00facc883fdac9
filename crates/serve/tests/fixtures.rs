//! Keeps the CI smoke fixtures live: every request file under `fixtures/`
//! must produce its committed `.expected.json` response byte-for-byte.
//!
//! The CI smoke job drives the same files through a real `numagap serve`
//! process with curl and diffs the bodies; this test pins the contract
//! in-process so a drift shows up in `cargo test` before it breaks CI.
//!
//! After an intentional change to the response bytes, regenerate the
//! expected bodies the way the smoke job reads them, from a live server:
//!
//! ```sh
//! target/release/numagap serve --port 47999 --workers 2 &
//! for f in whatif_replay whatif_analytic whatif_spellings whatif_printed; do
//!   curl -sf -X POST http://localhost:47999/v1/whatif \
//!     --data-binary @crates/serve/fixtures/$f.json \
//!     -o crates/serve/fixtures/$f.expected.json
//! done
//! curl -sf -X POST http://localhost:47999/v1/shutdown
//! ```

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
             .expected.json files (this file's header says how)"
        );
        checked += 1;
    }
    assert_eq!(
        checked, 4,
        "expected the replay, analytic, spellings and printed smoke fixtures"
    );
}
