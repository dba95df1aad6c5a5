"""CLI scenarios through the `hodge-degen` console script (tests/console.py):
the installed script when there is one, otherwise its `[project.scripts]`
target in a fresh process, so that tier-1 runs what an installed package
runs."""

from console import console


def test_every_catalog_entry_matches_through_the_console_script(tmp_path):
    # every entry the listing names, the orbit entries included
    listing = console("catalog", cwd=tmp_path)
    assert listing.returncode == 0
    names = listing.stdout.split()
    assert len(names) == 17
    for name in names:
        res = console("catalog", name, cwd=tmp_path)
        assert (res.returncode, res.stdout) == (0, "%s: match\n" % name)
