"""Dataspace inspection: DOT / GraphML export of resource view graphs.

Run:  python examples/graph_export.py
"""

from repro.core.graph import to_dot, to_graphml
from repro.facade import Dataspace
from repro.vfs import VirtualFileSystem

fs = VirtualFileSystem()
fs.mkdir("/Pictures", parents=True)
for name in ("sunset_beach.jpg", "sunset_hills.jpg", "forest_walk.jpg",
             "forest_creek.jpg"):
    fs.write_file(f"/Pictures/{name}", "photo")
fs.write_file("/notes.txt", "picture trip notes")

ds = Dataspace(vfs=fs)
ds.sync()

print("=" * 70)
print("Graph export")
print("=" * 70)
pictures = ds.rvm.view("fs:///Pictures")
dot = to_dot(pictures)
graphml = to_graphml(pictures)
print(f"DOT export: {len(dot.splitlines())} lines "
      f"(render with `dot -Tpng`)")
print(f"GraphML export: {len(graphml.splitlines())} lines "
      "(open in yEd/Gephi)")
print("\nDOT preview:")
print("\n".join(dot.splitlines()[:8]) + "\n  ...")
