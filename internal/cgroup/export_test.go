package cgroup

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Parent returns the group charged above this one (nil for a root).
func (g *Group) Parent() *Group { return g.parent }
