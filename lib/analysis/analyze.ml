let database ?entries db =
  let graph = Depgraph.build db in
  let outcome = Fixpoint.run ?entries ~graph db in
  let sccs = Depgraph.sccs graph in
  let stats =
    {
      Summary.predicates = Prolog.Database.predicate_count db;
      reached = Prolog.Abspat.size outcome.Fixpoint.patterns;
      iterations = outcome.Fixpoint.iterations;
      widened = outcome.Fixpoint.widened;
      scc_count = List.length sccs;
      open_world = outcome.Fixpoint.open_world;
    }
  in
  Summary.make ~patterns:outcome.Fixpoint.patterns ~stats ~sccs

let entry_of_string s = Prolog.Parser.term_of_string s
