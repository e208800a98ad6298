"""pathbench: the end-to-end + per-layer benchmark of the packet, query and
event paths (see README.md).  A package only so that its modules import
each other as ``pathbench.*`` - a bare ``trace`` would shadow the standard
library's module of that name."""
