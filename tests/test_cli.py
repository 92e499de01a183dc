"""Command-line error contract."""

import json

from specdown.cli import main


class TestErrorContract:
    def test_unknown_config_key(self, tmp_path, capsys):
        # "season" was once a key that was parsed and never used
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"season": "JFM"}), encoding="utf-8")
        assert main(["--config", str(cfg), "print-config"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ParseError"
        assert "season" in payload["message"]

    def test_print_config_round_trips(self, tmp_path, capsys):
        assert main(["print-config"]) == 0
        text = capsys.readouterr().out
        cfg = tmp_path / "config.json"
        cfg.write_text(text, encoding="utf-8")
        assert main(["--config", str(cfg), "print-config"]) == 0
        assert capsys.readouterr().out == text
