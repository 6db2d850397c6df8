"""One-shot prompting and the five-call clustered ensemble.

Runs are backed here by a scripted fixture backend, which replays canned
responses with scripted token counts. The same runner code drives a live
endpoint when one is configured.
"""

from grantgeo import Coordinate, EnsembleConfig, FixtureBackend, GrantAbstract, ModelConfig, run_ensemble, run_one_shot
from grantgeo.gateway import text_turn

grant = GrantAbstract.from_text(
    "grant_04",
    "WILLIAM WILLIAMS, 400 acs., on 8. side of the main Black Water Swamp; by run of Holloway Sw;",
    ground_truth=Coordinate(37.16, -77.24),
)

# --- one shot: a single call, answer parsed as a coordinate ---------------
backend = FixtureBackend([text_turn('37°00\'07.2"N 77°07\'58.8"W', input_tokens=150, output_tokens=25)])
cfg = ModelConfig("o3-2025-04-16", reasoning_effort="medium")
prediction = run_one_shot(backend, cfg, grant, method_id="M-2")
print("one-shot prediction")
print(f"  coordinate : ({prediction.coordinate.lat:.6f}, {prediction.coordinate.lon:.6f})")
print(f"  error      : {prediction.error_km:.2f} km")
print(f"  cost       : ${prediction.run.cost_usd}")

# A reply without coordinates fails loudly instead of guessing.
vague = run_one_shot(FixtureBackend([text_turn("somewhere near the swamp")]), cfg, grant, "M-2")
print(f"  vague reply -> failed={vague.failed}, reason={vague.run.reason}")

# --- ensemble: five seeded calls, DBSCAN vote, centroid of the majority ---
answers = [
    "37.166310, -77.240100",
    "37.166295, -77.240080",
    "37.166300, -77.240095",
    "38.100000, -78.500000",  # one stray call
    "37.166305, -77.240090",
]
backend = FixtureBackend([text_turn(a, 153, 940) for a in answers])
ens = EnsembleConfig(k=5, eps_km=0.5, min_cluster=3, seeds=(11, 12, 13, 14, 15))
vote = run_ensemble(backend, ModelConfig("o3-2025-04-16", reasoning_effort="low"), ens, grant, "E-1")
print("\nensemble prediction (4 tight answers + 1 stray)")
print(f"  coordinate : ({vote.coordinate.lat:.6f}, {vote.coordinate.lon:.6f})")
print(f"  error      : {vote.error_km:.2f} km")
print(f"  usage      : {vote.run.usage}")
print(f"  cost (5x)  : ${vote.run.cost_usd}")
