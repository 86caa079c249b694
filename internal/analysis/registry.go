package analysis

// Analyzers returns all project analyzers in the order buglint runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockOrder,
		CrossSpace,
		HotPath,
		RenameSync,
	}
}
