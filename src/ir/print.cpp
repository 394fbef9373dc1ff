#include "ir/print.hpp"

#include <ostream>
#include <sstream>

#include "ir/visit.hpp"

namespace npad::ir {

namespace {

const char* scalar_name(ScalarType t) {
  switch (t) {
    case ScalarType::F64: return "f64";
    case ScalarType::I64: return "i64";
    case ScalarType::Bool: return "bool";
  }
  return "?";
}

const char* binop_name(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Pow: return "**";
    case BinOp::Min: return "min";
    case BinOp::Max: return "max";
    case BinOp::Mod: return "%";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::And: return "&&";
    case BinOp::Or: return "||";
  }
  return "?";
}

const char* unop_name(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "neg";
    case UnOp::Exp: return "exp";
    case UnOp::Log: return "log";
    case UnOp::Sqrt: return "sqrt";
    case UnOp::Sin: return "sin";
    case UnOp::Cos: return "cos";
    case UnOp::Tanh: return "tanh";
    case UnOp::Abs: return "abs";
    case UnOp::Sign: return "sign";
    case UnOp::LGamma: return "lgamma";
    case UnOp::Digamma: return "digamma";
    case UnOp::Not: return "!";
    case UnOp::ToF64: return "f64";
    case UnOp::ToI64: return "i64";
  }
  return "?";
}

std::string ind(int n) { return std::string(static_cast<size_t>(n) * 2, ' '); }

class Printer {
public:
  Printer(std::ostream& os, const Module& m) : os_(os), m_(m) {}

  void atom(const Atom& a) {
    if (a.is_var()) {
      os_ << m_.name(a.var()) << "_" << a.var().id;
      return;
    }
    const ConstVal& c = a.cval();
    switch (c.t) {
      case ScalarType::F64: os_ << c.f; break;
      case ScalarType::I64: os_ << c.i << "i"; break;
      case ScalarType::Bool: os_ << (c.i ? "true" : "false"); break;
    }
  }

  void atoms(const std::vector<Atom>& as) {
    os_ << "(";
    for (size_t i = 0; i < as.size(); ++i) {
      if (i) os_ << ", ";
      atom(as[i]);
    }
    os_ << ")";
  }

  void vars(const std::vector<Var>& vs) {
    os_ << "(";
    for (size_t i = 0; i < vs.size(); ++i) {
      if (i) os_ << ", ";
      atom(Atom(vs[i]));
    }
    os_ << ")";
  }

  void lambda(const Lambda& l, int d) {
    os_ << "(\\";
    for (size_t i = 0; i < l.params.size(); ++i) {
      if (i) os_ << " ";
      atom(Atom(l.params[i].var));
      os_ << ":" << to_string(l.params[i].type);
    }
    os_ << " ->\n";
    body(l.body, d + 1);
    os_ << ind(d) << ")";
  }

  void exp(const Exp& e, int d) {
    std::visit(
        Overload{
            [&](const OpAtom& o) { atom(o.a); },
            [&](const OpBin& o) { atom(o.a); os_ << " " << binop_name(o.op) << " "; atom(o.b); },
            [&](const OpUn& o) { os_ << unop_name(o.op) << " "; atom(o.a); },
            [&](const OpSelect& o) {
              os_ << "select ";
              atom(o.c); os_ << " "; atom(o.t); os_ << " "; atom(o.f);
            },
            [&](const OpIndex& o) {
              atom(Atom(o.arr));
              os_ << "[";
              for (size_t i = 0; i < o.idx.size(); ++i) {
                if (i) os_ << ", ";
                atom(o.idx[i]);
              }
              os_ << "]";
            },
            [&](const OpUpdate& o) {
              atom(Atom(o.arr));
              os_ << " with [";
              for (size_t i = 0; i < o.idx.size(); ++i) {
                if (i) os_ << ", ";
                atom(o.idx[i]);
              }
              os_ << "] <- ";
              atom(o.v);
            },
            [&](const OpUpdAcc& o) {
              os_ << "upd_acc ";
              atom(Atom(o.acc));
              os_ << " [";
              for (size_t i = 0; i < o.idx.size(); ++i) {
                if (i) os_ << ", ";
                atom(o.idx[i]);
              }
              os_ << "] += ";
              atom(o.v);
            },
            [&](const OpIota& o) { os_ << "iota "; atom(o.n); },
            [&](const OpReplicate& o) { os_ << "replicate "; atom(o.n); os_ << " "; atom(o.v); },
            [&](const OpZerosLike& o) { os_ << "zeros_like "; atom(Atom(o.v)); },
            [&](const OpScratch& o) {
              os_ << "scratch "; atom(o.n); os_ << " like "; atom(Atom(o.like));
            },
            [&](const OpLength& o) { os_ << "length "; atom(Atom(o.arr)); },
            [&](const OpReverse& o) { os_ << "reverse "; atom(Atom(o.arr)); },
            [&](const OpTranspose& o) { os_ << "transpose "; atom(Atom(o.arr)); },
            [&](const OpCopy& o) { os_ << "copy "; atom(Atom(o.v)); },
            [&](const OpIf& o) {
              os_ << "if ";
              atom(o.c);
              os_ << " then\n";
              body(*o.tb, d + 1);
              os_ << ind(d) << "else\n";
              body(*o.fb, d + 1);
              os_ << ind(d) << "fi";
            },
            [&](const OpLoop& o) {
              os_ << "loop (";
              for (size_t i = 0; i < o.params.size(); ++i) {
                if (i) os_ << ", ";
                atom(Atom(o.params[i].var));
              }
              os_ << ") = ";
              atoms(o.init);
              if (o.while_cond) {
                os_ << " while\n";
                lambda(*o.while_cond, d + 1);
                os_ << " do\n";
              } else {
                os_ << " for ";
                atom(Atom(o.idx));
                os_ << " < ";
                atom(o.count);
                os_ << " do\n";
              }
              body(*o.body, d + 1);
              os_ << ind(d) << "pool";
              if (o.stripmine > 0) os_ << " @stripmine(" << o.stripmine << ")";
              if (o.checkpoint_entry) os_ << " @checkpoint_entry";
            },
            [&](const OpMap& o) {
              os_ << "map ";
              lambda(*o.f, d);
              os_ << " ";
              vars(o.args);
            },
            [&](const OpReduce& o) {
              os_ << (o.pre ? "redomap " : "reduce ");
              lambda(*o.op, d);
              if (o.pre) {
                os_ << " ";
                lambda(*o.pre, d);
              }
              os_ << " ";
              atoms(o.neutral);
              os_ << " ";
              vars(o.args);
              if (o.fused > 0) os_ << " @fused(" << o.fused << ")";
            },
            [&](const OpScan& o) {
              os_ << "scan ";
              lambda(*o.op, d);
              os_ << " ";
              atoms(o.neutral);
              os_ << " ";
              vars(o.args);
            },
            [&](const OpHist& o) {
              os_ << "reduce_by_index ";
              atom(Atom(o.dest));
              os_ << " ";
              lambda(*o.op, d);
              os_ << " ";
              atom(o.neutral);
              os_ << " ";
              atom(Atom(o.inds));
              os_ << " ";
              atom(Atom(o.vals));
            },
            [&](const OpScatter& o) {
              os_ << "scatter ";
              atom(Atom(o.dest));
              os_ << " ";
              atom(Atom(o.inds));
              os_ << " ";
              atom(Atom(o.vals));
            },
            [&](const OpWithAcc& o) {
              os_ << "withacc ";
              vars(o.arrs);
              os_ << " ";
              lambda(*o.f, d);
            },
        },
        e);
  }

  void body(const Body& b, int d) {
    for (const auto& s : b.stms) {
      os_ << ind(d) << "let ";
      for (size_t i = 0; i < s.vars.size(); ++i) {
        if (i) os_ << ", ";
        atom(Atom(s.vars[i]));
        os_ << ": " << to_string(s.types[i]);
      }
      os_ << " = ";
      exp(s.e, d);
      os_ << "\n";
    }
    os_ << ind(d) << "in ";
    atoms(b.result);
    os_ << "\n";
  }

private:
  std::ostream& os_;
  const Module& m_;
};

} // namespace

std::string to_string(const Type& t) {
  std::string s = scalar_name(t.elem);
  for (int i = 0; i < t.rank; ++i) s = "[]" + s;
  if (t.is_acc) s = "acc(" + s + ")";
  return s;
}

std::string to_string(const Module& m, const Atom& a) {
  std::ostringstream os;
  Printer(os, m).atom(a);
  return os.str();
}

void print_body(std::ostream& os, const Module& m, const Body& b, int indent) {
  Printer(os, m).body(b, indent);
}

void print_prog(std::ostream& os, const Prog& p) {
  os << "fn " << p.fn.name << "(";
  for (size_t i = 0; i < p.fn.params.size(); ++i) {
    if (i) os << ", ";
    os << p.mod->name(p.fn.params[i].var) << "_" << p.fn.params[i].var.id << ": "
       << to_string(p.fn.params[i].type);
  }
  os << ") -> (";
  for (size_t i = 0; i < p.fn.rets.size(); ++i) {
    if (i) os << ", ";
    os << to_string(p.fn.rets[i]);
  }
  os << ") {\n";
  print_body(os, *p.mod, p.fn.body, 1);
  os << "}\n";
}

std::string to_string(const Prog& p) {
  std::ostringstream os;
  print_prog(os, p);
  return os.str();
}

size_t count_stms(const Body& b) {
  size_t n = b.stms.size();
  for (const auto& s : b.stms) {
    for_each_nested(s.e, [&](const NestedScope& ns) { n += count_stms(*ns.body); });
  }
  return n;
}

} // namespace npad::ir
