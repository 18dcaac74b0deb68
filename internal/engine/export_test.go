package engine

// SaveVariables and RestoreVariables run the memo codec of journaled
// effects (variables.save / restore) for the package's external tests.
func SaveVariables(ctx *Ctx, names ...string) (map[string]string, error) {
	return variables{ctx: ctx, keys: varKeys(names)}.save()
}

// RestoreVariables: see SaveVariables.
func RestoreVariables(ctx *Ctx, memo map[string]string) error {
	return variables{ctx: ctx}.restore(memo)
}
