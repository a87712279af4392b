"""Minimum-entropy in-context refinement: loop, generators, voting, metrics; import from the modules."""
