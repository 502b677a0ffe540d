"""Core intermediate representation.

A typed virtual-register IR with modules, functions, basic blocks and
operations — the substrate every analysis and partitioner in this package
operates on.  See :mod:`repro.ir.ops` for the instruction set.
"""

from .block import BasicBlock
from .builder import IRBuilder
from .clone import clone_function, clone_module
from .function import Function
from .module import GlobalVariable, Module
from .ops import OpClass, Opcode, Operation, TERMINATORS, renumber_ops
from .printer import print_function, print_module, print_partitioned
from .serialize import SerializeError, dumps, loads
from .types import (
    FLOAT,
    INT,
    VOID,
    ArrayType,
    FloatType,
    IntType,
    IRType,
    PointerType,
    StructType,
    VoidType,
)
from .values import Constant, FunctionRef, GlobalAddress, Value, VirtualRegister
from .verifier import VerificationError, verify_function, verify_module

__all__ = [
    "BasicBlock",
    "IRBuilder",
    "clone_function",
    "clone_module",
    "Function",
    "GlobalVariable",
    "Module",
    "OpClass",
    "Opcode",
    "Operation",
    "TERMINATORS",
    "renumber_ops",
    "print_function",
    "print_module",
    "print_partitioned",
    "SerializeError",
    "dumps",
    "loads",
    "FLOAT",
    "INT",
    "VOID",
    "ArrayType",
    "FloatType",
    "IntType",
    "IRType",
    "PointerType",
    "StructType",
    "VoidType",
    "Constant",
    "FunctionRef",
    "GlobalAddress",
    "Value",
    "VirtualRegister",
    "VerificationError",
    "verify_function",
    "verify_module",
]
