import pytest

import fingerprint
import workloads

W = workloads.WORKLOADS["text-ngram"]
LABELS = [f"lang{i % 8}" for i in range(8)]  # 8 inputs, test_fraction 0.5 -> 4 rows


def _write(path, rows, accuracy=None, cost="12.5"):
    if accuracy is None:
        accuracy = sum(t == p for _, t, p in rows) / len(rows)
    lines = [f"# experiment.seed = 1", f"# accuracy = {accuracy}",
             f"# cost.total.hydra_energy_pj = {cost}",
             "sample_index,true_label,predicted_label,correct,lta_ambiguous_flags"]
    lines += [f"{i},{t},{p},{int(t == p)},0" for i, t, p in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


ROWS = [(1, "lang1", "lang1"), (3, "lang3", "lang3"), (4, "lang4", "lang2"), (6, "lang6", "lang6")]


def test_valid_csv_gives_fingerprint(tmp_path):
    fp = fingerprint.check_csv(_write(tmp_path / "a.csv", ROWS), W, LABELS)
    assert fp["rows"] == 4
    assert fp["accuracy"] == 0.75
    assert fp["cost.total.hydra_energy_pj"] == "12.5"
    assert len(fp["csv_sha256"]) == 64


def test_truncated_csv_is_rejected(tmp_path):
    path = _write(tmp_path / "a.csv", ROWS)
    text = path.read_text()
    path.write_text(text[: text.rindex("\n", 0, -1) + 1])
    with pytest.raises(fingerprint.CheckError, match="rows"):
        fingerprint.check_csv(path, W, LABELS)


@pytest.mark.parametrize("old,new,match", [
    ("4,lang4,lang2,0", "4,lang4,lang4,0", "correct flag"),
    ("4,lang4,lang2,0", "4,lang4,lang4,1", "rows give"),
    ("3,lang3,lang3", "3,lang5,lang5", "label differs"),
    ("6,lang6", "9,lang6", "indices"),
])
def test_edited_csv_is_rejected(tmp_path, old, new, match):
    path = _write(tmp_path / "a.csv", ROWS)
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(fingerprint.CheckError, match=match):
        fingerprint.check_csv(path, W, LABELS)


def test_consistent_edit_changes_the_fingerprint(tmp_path):
    a = fingerprint.check_csv(_write(tmp_path / "a.csv", ROWS), W, LABELS)
    b = fingerprint.check_csv(_write(tmp_path / "b.csv", ROWS, cost="12.6"), W, LABELS)
    assert a != b
    assert a == fingerprint.check_csv(_write(tmp_path / "c.csv", ROWS), W, LABELS)
