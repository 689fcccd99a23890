"""Tests for the linear-history version repository."""

from __future__ import annotations

import pytest

from repro.errors import CommitNotFoundError, VersioningError
from repro.versioning.repository import Repository


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "train.py").write_text("print('v1')\n")
    (tmp_path / "infer.py").write_text("print('infer')\n")
    return tmp_path


@pytest.fixture()
def repo(workdir):
    repository = Repository(workdir / ".objects", workdir)
    repository.track("train.py", "infer.py")
    return repository


class TestTracking:
    def test_tracked_files_listed(self, repo):
        assert repo.tracked == ["infer.py", "train.py"]

    def test_untrack(self, repo):
        repo.untrack("infer.py")
        assert repo.tracked == ["train.py"]

    def test_missing_tracked_file_is_skipped(self, repo, workdir):
        repo.track("not_there.py")
        commit = repo.commit("v1")
        assert "not_there.py" not in commit.files


class TestCommits:
    def test_first_commit_has_no_parent(self, repo):
        commit = repo.commit("initial")
        assert commit.parent_vid is None
        assert set(commit.files) == {"train.py", "infer.py"}

    def test_commit_chain_links_parents(self, repo, workdir):
        first = repo.commit("v1")
        (workdir / "train.py").write_text("print('v2')\n")
        second = repo.commit("v2")
        assert second.parent_vid == first.vid
        assert len(repo) == 2
        assert repo.head().vid == second.vid

    def test_identical_content_reuses_commit(self, repo):
        first = repo.commit("v1")
        second = repo.commit("v1 again")
        assert first.vid == second.vid
        assert len(repo) == 1

    def test_get_unknown_vid_raises(self, repo):
        repo.commit("v1")
        with pytest.raises(CommitNotFoundError):
            repo.get("doesnotexist")

    def test_journal_persists_across_instances(self, repo, workdir):
        vid = repo.commit("v1").vid
        reopened = Repository(workdir / ".objects", workdir)
        assert vid in reopened
        assert reopened.tracked == ["infer.py", "train.py"]


class TestFileAccess:
    def test_read_file_at_version(self, repo, workdir):
        first = repo.commit("v1")
        (workdir / "train.py").write_text("print('v2')\n")
        second = repo.commit("v2")
        assert "v1" in repo.read_file(first.vid, "train.py")
        assert "v2" in repo.read_file(second.vid, "train.py")

    def test_read_missing_file_raises(self, repo):
        commit = repo.commit("v1")
        with pytest.raises(VersioningError):
            repo.read_file(commit.vid, "other.py")

    def test_file_exists(self, repo):
        commit = repo.commit("v1")
        assert repo.file_exists(commit.vid, "train.py")
        assert not repo.file_exists(commit.vid, "nope.py")
        assert not repo.file_exists("badvid", "train.py")

    def test_checkout_materializes_version(self, repo, workdir, tmp_path):
        first = repo.commit("v1")
        (workdir / "train.py").write_text("print('v2')\n")
        repo.commit("v2")
        destination = tmp_path / "restore"
        written = repo.checkout(first.vid, destination)
        assert written == ["infer.py", "train.py"]
        assert "v1" in (destination / "train.py").read_text()


class TestDiffing:
    def test_diff_between_versions(self, repo, workdir):
        first = repo.commit("v1")
        (workdir / "train.py").write_text("print('v2')\nprint('extra')\n")
        second = repo.commit("v2")
        rendered = repo.diff(first.vid, second.vid, "train.py")
        assert "-print('v1')" in rendered
        assert "+print('v2')" in rendered

    def test_change_summary_counts(self, repo, workdir):
        first = repo.commit("v1")
        (workdir / "train.py").write_text("print('v1')\nprint('added')\n")
        second = repo.commit("v2")
        summary = repo.change_summary(first.vid, second.vid)
        assert summary["train.py"]["added"] == 1
        assert summary["train.py"]["deleted"] == 0
        assert summary["infer.py"]["added"] == 0

    def test_a_form_feed_line_is_one_line_of_the_diff(self, repo, workdir):
        """Lines are numbered as ``ast`` numbers them; ``str.splitlines``
        also broke at the form feed, counting four lines in a file of three."""
        (workdir / "train.py").write_text("x = 1\n\x0c\ny = 2\n")
        first = repo.commit("v1")
        (workdir / "train.py").write_text("x = 1\n\x0c\ny = 3\n")
        second = repo.commit("v2")
        rendered = repo.diff(first.vid, second.vid, "train.py")
        assert "@@ -1,3 +1,3 @@" in rendered and "\n \x0c\n" in rendered
        assert repo.change_summary(first.vid, second.vid)["train.py"]["unchanged"] == 2

    def test_corrupt_journal_raises(self, workdir):
        objects = workdir / ".objects"
        objects.mkdir(exist_ok=True)
        (objects / Repository.JOURNAL_NAME).write_text("{not json")
        with pytest.raises(VersioningError):
            Repository(objects, workdir)
