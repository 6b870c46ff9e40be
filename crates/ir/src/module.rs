//! A module: an ordered collection of named [`Function`]s.
//!
//! Batch compile workloads (the benchmark suites, `darm meld` on a file
//! holding several kernels) operate on whole modules; the module driver in
//! `darm-pipeline` runs a pass pipeline over every function — serially or
//! on a worker pool, since functions are fully independent. Each function
//! keeps its own mutation journal (see [`crate::dirty`]), so the analysis
//! cache and the worklist cleanups work per function exactly as they do
//! in single-function compilation; there is no module-wide journal.
//!
//! The textual form is one or more `fn @name(...) -> ty { ... }` bodies
//! (see [`crate::parser::parse_module`]); printing a module renders its
//! functions in order, separated by blank lines, and round-trips through
//! the parser.

use crate::function::Function;
use std::fmt;

/// An ordered collection of named functions.
///
/// Function names are unique within a module; insertion order is the
/// compilation (and printing) order. Handles into a function
/// ([`crate::BlockId`], [`crate::InstId`]) stay function-local — nothing at
/// the module level aliases into function arenas.
#[derive(Debug, Clone, Default)]
pub struct Module {
    name: String,
    functions: Vec<Function>,
}

/// Error adding a function whose name the module already holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateFunction(pub String);

impl fmt::Display for DuplicateFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "duplicate function `@{}` in module", self.0)
    }
}

impl std::error::Error for DuplicateFunction {}

impl Module {
    /// An empty module with a display name (used in reports; not part of
    /// the textual form).
    pub fn new(name: &str) -> Module {
        Module {
            name: name.to_string(),
            functions: Vec::new(),
        }
    }

    /// The module's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a function, returning its index.
    ///
    /// # Errors
    ///
    /// [`DuplicateFunction`] when a function of the same name is already
    /// present (the function is returned untouched inside the error's
    /// name, not stored).
    pub fn add_function(&mut self, func: Function) -> Result<usize, DuplicateFunction> {
        if self.functions.iter().any(|f| f.name() == func.name()) {
            return Err(DuplicateFunction(func.name().to_string()));
        }
        self.functions.push(func);
        Ok(self.functions.len() - 1)
    }

    /// Builds a module from functions, erroring on duplicate names.
    ///
    /// # Errors
    ///
    /// [`DuplicateFunction`] for the first repeated name.
    pub fn from_functions(
        name: &str,
        functions: impl IntoIterator<Item = Function>,
    ) -> Result<Module, DuplicateFunction> {
        let mut m = Module::new(name);
        for f in functions {
            m.add_function(f)?;
        }
        Ok(m)
    }

    /// The functions, in insertion order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Mutable access to the functions (names must stay unique; passes
    /// transform bodies, not names).
    pub fn functions_mut(&mut self) -> &mut [Function] {
        &mut self.functions
    }

    /// The function named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name() == name)
    }

    /// Mutable [`Module::get`].
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Function> {
        self.functions.iter_mut().find(|f| f.name() == name)
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the module holds no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Consumes the module into its functions.
    pub fn into_functions(self) -> Vec<Function> {
        self.functions
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.functions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::types::Type;

    fn trivial(name: &str) -> Function {
        let mut f = Function::new(name, vec![], Type::Void);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        b.ret(None);
        f
    }

    #[test]
    fn keeps_insertion_order_and_rejects_duplicates() {
        let mut m = Module::new("m");
        assert_eq!(m.add_function(trivial("a")).unwrap(), 0);
        assert_eq!(m.add_function(trivial("b")).unwrap(), 1);
        assert_eq!(
            m.add_function(trivial("a")),
            Err(DuplicateFunction("a".into()))
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m.functions()[0].name(), "a");
        assert!(m.get("b").is_some());
        assert!(m.get("c").is_none());
    }

    #[test]
    fn prints_functions_separated_by_blank_lines() {
        let m = Module::from_functions("m", [trivial("a"), trivial("b")]).unwrap();
        let text = m.to_string();
        assert!(text.contains("fn @a() -> void {"), "{text}");
        assert!(text.contains("}\n\nfn @b() -> void {"), "{text}");
    }
}
